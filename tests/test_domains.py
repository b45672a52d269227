import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import snapped_radii, transferred_gram
from zernkit.collocation import assemble
from zernkit.domains import (
    AnnulusMap,
    DiskMap,
    DiskZernikeBasis,
    EllipseMap,
    HexagonBasis,
    HexagonMap,
    TransferredBasis,
    make_basis,
    make_map,
    polygon_boundary_radius,
    polygon_fold,
    transfer_nodes,
)
from zernkit.errors import DomainError
from zernkit.samplings import NodeSet, Scheme, carnicer_nodes, generate_nodes, ocs_nodes
from zernkit.zernike import CONTAIN_TOL, basis_size, zernike_matrix, zernike_polar

ALPHA = math.pi / 6


class TestBoundaryRadius:
    def test_edge_midpoint(self):
        assert polygon_boundary_radius(0.0, ALPHA) == pytest.approx(
            math.sqrt(3) / 2, abs=1e-15
        )

    def test_vertex(self):
        # fold(pi/6) = -pi/6, so the boundary radius reaches 1
        assert polygon_fold(np.pi / 6, ALPHA) == pytest.approx(-np.pi / 6)
        assert polygon_boundary_radius(np.pi / 6, ALPHA) == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, max_value=2 * math.pi - 2 * ALPHA))
    @settings(max_examples=200)
    def test_periodicity(self, theta):
        a = polygon_boundary_radius(theta, ALPHA)
        b = polygon_boundary_radius(theta + 2 * ALPHA, ALPHA)
        assert abs(a - b) < 1e-12

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=300)
    def test_range(self, theta):
        r = polygon_boundary_radius(theta, ALPHA)
        assert math.cos(ALPHA) - 1e-15 <= r <= 1.0 + 1e-15


class TestHexagonMap:
    def test_boundary_to_edge_midpoint(self):
        m = HexagonMap()
        r, t = m.forward_polar(1.0, 0.0)
        assert (r, t) == (pytest.approx(math.sqrt(3) / 2), 0.0)

    def test_origin_fixed(self):
        m = HexagonMap()
        assert m.forward_polar(0.0, 0.0) == (0.0, 0.0)

    def test_roundtrip_grid(self):
        m = HexagonMap()
        rng = np.random.default_rng(0)
        rho = np.sqrt(rng.random(1000))
        theta = 2 * np.pi * rng.random(1000)
        brho, btheta = m.inverse_polar(*m.forward_polar(rho, theta))
        assert np.array_equal(btheta, theta)
        assert np.max(np.abs(brho - rho)) < 1e-13

    def test_inverse_rejects_outside(self):
        m = HexagonMap()
        with pytest.raises(DomainError):
            m.inverse_polar(0.99, 0.0)  # past the edge midpoint at sqrt(3)/2

    def test_inverse_jacobian(self):
        # the H weight is sqrt|J|, and |J| = 1/R(0)^2 = 4/3 on the x axis
        m = HexagonMap()
        assert m.weigh(np.ones(1), 0.1, 0.0)[0] ** 2 == pytest.approx(4.0 / 3.0)


class TestEllipseMap:
    def test_identity_when_unit(self):
        m = EllipseMap(1.0, 1.0)
        assert m.forward_xy(0.3, -0.4) == (0.3, -0.4)

    def test_axis_scaling(self):
        m = EllipseMap(2.0, 1.0)
        assert m.forward_xy(1.0, 0.0) == (2.0, 0.0)

    def test_axis_order_enforced(self):
        with pytest.raises(ValueError):
            EllipseMap(1.0, 2.0)

    def test_area_by_monte_carlo(self):
        big_a, big_b = 2.0, 1.0
        m = EllipseMap(big_a, big_b)
        rng = np.random.default_rng(123)
        pts = rng.uniform([-big_a, -big_b], [big_a, big_b], size=(1_000_000, 2))
        u, v = m.inverse_xy(pts[:, 0], pts[:, 1], check=False)
        frac = np.mean(u * u + v * v <= 1.0)
        area = frac * 4 * big_a * big_b
        assert area == pytest.approx(np.pi * big_a * big_b, rel=0.01)

    def test_roundtrip(self):
        m = EllipseMap(2.0, 1.0)
        rng = np.random.default_rng(1)
        u = rng.uniform(-0.7, 0.7, 500)
        v = rng.uniform(-0.7, 0.7, 500)
        fx, fy = m.forward_xy(u, v)
        bu, bv = m.inverse_xy(fx, fy)
        assert np.max(np.hypot(bu - u, bv - v)) < 1e-13


class TestAnnulusMap:
    def test_center_to_inner_circle(self):
        m = AnnulusMap(0.5, 1.0)
        assert m.forward_polar(0.0, 0.0) == (0.5, 0.0)

    def test_boundary_to_outer_circle(self):
        m = AnnulusMap(0.5, 1.0)
        r, t = m.forward_polar(1.0, 1.1)
        assert (r, t) == (pytest.approx(1.0), 1.1)

    def test_roundtrip(self):
        m = AnnulusMap(0.5, 1.0)
        rng = np.random.default_rng(2)
        rho = rng.random(1000)
        theta = 2 * np.pi * rng.random(1000)
        brho, btheta = m.inverse_polar(*m.forward_polar(rho, theta))
        assert np.array_equal(btheta, theta)
        assert np.max(np.abs(brho - rho)) < 1e-13

    def test_inverse_rejects_outside(self):
        m = AnnulusMap(0.5, 1.0)
        with pytest.raises(DomainError):
            m.inverse_polar(0.25, 0.0)
        with pytest.raises(DomainError):
            m.inverse_polar(1.05, 0.0)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            AnnulusMap(0.0, 1.0)
        with pytest.raises(ValueError):
            AnnulusMap(1.2, 1.0)

    def test_narrow_annulus_warns(self):
        with pytest.warns(UserWarning):
            AnnulusMap(0.96, 1.0)


class TestTransfer:
    def test_unit_ellipse_is_identity(self):
        nodes = ocs_nodes(5)
        moved = transfer_nodes(EllipseMap(1.0, 1.0), nodes)
        assert np.array_equal(moved.nodes, nodes.nodes)

    def test_hexagon_keeps_origin(self):
        nodes = ocs_nodes(10)  # innermost ring is the single origin node
        moved = transfer_nodes(HexagonMap(), nodes)
        assert moved.nodes[-1, 0] == 0.0
        assert moved.nodes[-1, 1] == 0.0

    def test_annulus_shifts_center_node(self):
        nodes = ocs_nodes(10)
        moved = transfer_nodes(AnnulusMap(0.5, 1.0), nodes, inner_eps=0.01)
        assert moved.nodes[-1, 0] == pytest.approx(0.51, abs=1e-15)
        assert moved.nodes[-1, 1] == 0.0

    def test_annulus_shift_only_for_exact_center(self):
        nodes = ocs_nodes(9)  # odd order: no origin node
        moved = transfer_nodes(AnnulusMap(0.5, 1.0), nodes, inner_eps=0.01)
        assert np.all(moved.rho > 0.5)
        assert np.min(moved.rho) > 0.5 + 0.01  # nothing was snapped to a + eps

    def test_order_preserved(self):
        nodes = carnicer_nodes(6)
        moved = transfer_nodes(HexagonMap(), nodes)
        # same angular order ring by ring
        assert np.array_equal(moved.theta, nodes.theta)

    def test_only_disk_sets_transfer(self):
        nodes = transfer_nodes(HexagonMap(), ocs_nodes(4))
        with pytest.raises(DomainError):
            transfer_nodes(HexagonMap(), nodes)


class TestBasisValues:
    def test_hexagon_plain_piston(self):
        b = HexagonBasis(4, "K")
        rng = np.random.default_rng(3)
        theta = 2 * np.pi * rng.random(50)
        rho = 0.9 * polygon_boundary_radius(theta, ALPHA) * rng.random(50)
        assert np.all(b.eval_polar(0, rho, theta) == 1.0)

    def test_hexagon_weighted_piston(self):
        b = HexagonBasis(4, "H")
        got = b.eval_polar(0, 0.5, 0.0)
        assert got == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)

    def test_ellipse_piston(self):
        b = make_basis("E", 4, EllipseMap(2.0, 1.0))
        got = b.matrix_xy(np.array([0.0, 1.5, -1.0]), np.array([0.0, 0.2, 0.3]))[0]
        assert np.allclose(got, 1.0 / math.sqrt(2.0), atol=1e-15)

    def test_annulus_weighted_vanishes_on_inner_circle(self):
        b = make_basis("O", 4, AnnulusMap(0.5, 1.0))
        theta = np.linspace(0, 2 * np.pi, 13)
        for j in range(b.size):
            assert np.all(b.eval_polar(j, np.full_like(theta, 0.5), theta) == 0.0)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            HexagonBasis(3, "K").matrix_xy(0.95, 0.0)[0]
        with pytest.raises(DomainError):
            make_basis("E", 3, EllipseMap(2.0, 1.0)).matrix_xy(2.05, 0.0)[0]
        with pytest.raises(DomainError):
            make_basis("C", 3, AnnulusMap(0.5, 1.0)).matrix_xy(0.3, 0.0)[0]

    def test_weight_bounds_on_hexagon(self):
        theta = np.linspace(-7, 7, 20001)
        w = 1.0 / polygon_boundary_radius(theta, ALPHA)
        assert np.all(w >= 1.0 - 1e-15)
        assert np.all(w <= 2.0 * math.sqrt(3.0) / 3.0 + 1e-15)

    def test_family_domain_pairing(self):
        with pytest.raises(ValueError):
            HexagonBasis(3, "E")
        with pytest.raises(ValueError):
            TransferredBasis(3, "K", AnnulusMap(0.5, 1.0))
        with pytest.raises(ValueError):
            make_basis("Q", 3)


FAMILY_MAPS = {
    "Z": DiskMap(),
    "K": HexagonMap(),
    "H": HexagonMap(),
    "E": EllipseMap(2.0, 1.0),
    "O": AnnulusMap(0.5, 1.0),
    "C": AnnulusMap(0.5, 1.0),
}


def _rows(basis, a, b, check=True):
    """Every function of the basis at points (a, b) in its map's
    coordinates, one ``zernike_polar`` row at a time at the map's
    pull-back, times the map's weight for a weighted family."""
    dm = basis.map
    u, t = dm.pull_back(a, b, check)
    rows = np.array([zernike_polar(j, u, t) for j in range(basis.size)])
    return dm.weigh(rows, a, b) if basis.weighted else rows


def _row_by_row(basis, nodes):
    """The collocation matrix one row at a time, as an oracle."""
    if basis.map.coordinates == "xy":
        return _rows(basis, nodes.x, nodes.y)
    return _rows(basis, nodes.rho, nodes.theta)


def _outside_point(domain_map, theta, factor):
    """A point ``factor`` > 1 beyond the boundary of the map's image along
    angle theta (for the annulus alternately inside the hole)."""
    c, s = math.cos(theta), math.sin(theta)
    if isinstance(domain_map, DiskMap):
        return factor * c, factor * s
    if isinstance(domain_map, HexagonMap):
        r = factor * float(domain_map.boundary_radius(theta))
        return r * c, r * s
    if isinstance(domain_map, EllipseMap):
        return factor * domain_map.semi_major * c, factor * domain_map.semi_minor * s
    r = domain_map.outer * factor if factor > 1.5 else domain_map.inner / factor
    return r * c, r * s


class TestBatchedEvaluation:
    @given(
        st.sampled_from(sorted(FAMILY_MAPS)),
        st.integers(min_value=1, max_value=16),
        st.sampled_from(["ocs", "carnicer", "cuyt", "spiral", "random"]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80)
    def test_matrix_equals_row_evaluators(self, family, order, scheme, seed):
        dm = FAMILY_MAPS[family]
        nodes = generate_nodes(scheme, order, seed)
        nodes = transfer_nodes(dm, nodes, inner_eps=0.01 if family == "O" else None)
        basis = make_basis(family, order, dm)
        assert np.array_equal(basis.matrix(nodes), _row_by_row(basis, nodes))

    @given(
        st.sampled_from(sorted(FAMILY_MAPS)),
        st.integers(min_value=0, max_value=12),
        st.lists(
            st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=80)
    def test_unchecked_xy_matrix_equals_row_evaluators(self, family, order, points):
        basis = make_basis(family, order, FAMILY_MAPS[family])
        x, y = (np.array(c) for c in zip(*points))
        a, b = (x, y) if family == "E" else (np.hypot(x, y), np.arctan2(y, x))
        # the O weight is 0/0 at the origin, NaN on both paths
        with np.errstate(invalid="ignore"):
            values = basis.matrix_xy(x, y, check=False)
            rows = _rows(basis, a, b, check=False)
        for j, row in enumerate(rows):
            assert np.array_equal(values[j], row, equal_nan=True), j

    @given(
        st.sampled_from(sorted(FAMILY_MAPS)),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=1.01, max_value=3.0),
    )
    @settings(max_examples=80)
    def test_outside_point_raises_like_row_path(self, family, theta, factor):
        dm = FAMILY_MAPS[family]
        basis = make_basis(family, 3, dm)
        px, py = _outside_point(dm, theta, factor)
        inside_x = 0.75 if family in "OC" else 0.0  # the annulus has a hole
        x = np.array([inside_x, px])
        y = np.array([0.0, py])
        with pytest.raises(DomainError) as row:
            basis.matrix_xy(x, y)[0]
        rho, ang = np.hypot(x, y), np.arctan2(y, x)
        with pytest.raises(DomainError, match=str(row.value)):
            basis.matrix_polar(rho, ang)

    @given(
        st.integers(min_value=0, max_value=12),
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=80)
    def test_ellipse_polar_forms_match_xy(self, order, points):
        basis = make_basis("E", order, FAMILY_MAPS["E"])
        r, t = (np.array(c) for c in zip(*points))
        x, y = 2.0 * r * np.cos(t), 1.0 * r * np.sin(t)
        rho, theta = np.hypot(x, y), np.arctan2(y, x)
        expected = basis.matrix_xy(x, y)
        assert np.max(np.abs(basis.matrix_polar(rho, theta) - expected)) <= 1e-13
        for j in range(basis.size):
            assert np.max(np.abs(basis.eval_polar(j, rho, theta) - expected[j])) <= 1e-13


class TestDisk:
    """The plain family Z is the transferred family on the identity map."""

    @pytest.mark.parametrize("scheme", ["ocs", "spiral", "random", "approx-fekete"])
    def test_transfer_keeps_the_node_set_arrays(self, scheme):
        nodes = generate_nodes(scheme, 7)
        moved = transfer_nodes(DiskMap(), nodes)
        assert moved.domain == "disk"
        assert np.array_equal(moved.nodes, nodes.nodes)
        assert np.array_equal(moved.polar, nodes.polar)

    @pytest.mark.parametrize("n", [1, 6, 15])
    def test_matrix_is_the_zernike_matrix(self, n):
        nodes = generate_nodes("carnicer", n)
        expected = zernike_matrix(n, nodes.rho, nodes.theta)
        assert np.array_equal(DiskZernikeBasis(n).matrix(nodes), expected)

    @staticmethod
    def _nodes_at(rho_sq):
        r = math.sqrt(rho_sq)
        nodes = np.array([[r, 0.0], [0.0, 0.5], [-0.5, 0.0]])
        return NodeSet(1, Scheme.BOS_CUSTOM, nodes)

    def test_containment_tolerance_on_rho_squared(self):
        basis = DiskZernikeBasis(1)
        inside = self._nodes_at(1.0 + 0.5 * CONTAIN_TOL)
        outside = self._nodes_at(1.0 + 2.0 * CONTAIN_TOL)
        assert np.all(np.isfinite(assemble(basis, inside).entries))
        for nodes, admitted in ((inside, True), (outside, False)):
            calls = (
                lambda: assemble(basis, nodes),
                lambda: basis.matrix_polar(nodes.rho, nodes.theta),
                lambda: basis.matrix_xy(nodes.x, nodes.y),
                lambda: basis.eval_polar(2, nodes.rho, nodes.theta),
            )
            for call in calls:
                if admitted:
                    call()
                else:
                    with pytest.raises(DomainError, match="outside the disk"):
                        call()

    def test_family_needs_the_disk_map(self):
        assert make_basis("Z", 4).map == DiskMap()
        with pytest.raises(ValueError, match="family 'Z' needs the disk map"):
            make_basis("Z", 4, HexagonMap())


class TestSnap:
    """The vectorised ulp snap of the radial maps equals the element-by-element
    reference of ``oracles.snapped_radii`` bit for bit.

    The snap tries the upper neighbour first, but no float data can tell
    that order apart: each map's inverse radius is monotone in floating
    point, so if both neighbours of an off-by-one image pulled back onto
    the source radius, so would the image itself.
    """

    MAPS = (HexagonMap(), AnnulusMap(0.3, 1.0), AnnulusMap(0.5, 1.0))

    @staticmethod
    def _random_set(seed, order=62):
        rng = np.random.default_rng(seed)
        count = basis_size(order)
        rho = rng.random(count)
        rho[:2] = 0.0, 1.0
        theta = rng.uniform(-math.pi, math.pi, count)
        nodes = np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])
        polar = np.column_stack([rho, theta])
        return NodeSet(order, Scheme.BOS_CUSTOM, nodes, polar=polar)

    @given(
        st.integers(min_value=1, max_value=30),
        st.sampled_from(["ocs", "carnicer", "cuyt", "spiral", "random"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_transfer_equals_the_elementwise_snap(self, order, scheme, node_seed, seed):
        nudged = 0
        for nodes in (generate_nodes(scheme, order, node_seed), self._random_set(seed)):
            for dm in self.MAPS:
                moved = transfer_nodes(dm, nodes, inner_eps=None)
                expected = snapped_radii(dm, nodes.rho, nodes.theta)
                polar = np.column_stack([expected, nodes.theta])
                assert np.array_equal(moved.polar, polar)
                naive = dm.forward_polar(nodes.rho, nodes.theta)[0]
                nudged += np.count_nonzero(expected != naive)
        assert nudged > 0  # the data exercises the snap, not only the naive map


def _ulp_neighbours(values, k):
    """The floats within k ulps of each value, as 2k + 1 arrays."""
    out, up, down = [values], values, values
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


class TestTransferRoundTrip:
    @given(
        st.sampled_from([HexagonMap(), AnnulusMap(0.5, 1.0), AnnulusMap(0.2, 1.5)]),
        st.integers(min_value=1, max_value=20),
        st.sampled_from(["ocs", "carnicer", "cuyt", "spiral", "random"]),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([None, 0.01]),
    )
    @settings(max_examples=80, deadline=None)
    def test_radial_pull_back_returns_the_source(self, dm, order, scheme, seed, eps):
        """Angles come back exactly.  A radius comes back exactly unless no
        float within two ulps of the transferred radius pulls back onto it
        (the image radii are a coarser float grid); then it is off by at
        most two steps of that grid, pulled back."""
        nodes = generate_nodes(scheme, order, seed)
        moved = transfer_nodes(dm, nodes, inner_eps=eps)
        back, theta = dm.inverse_polar(moved.rho, moved.theta)
        assert np.array_equal(theta, nodes.theta)
        shifted = np.zeros(len(nodes), bool)
        if eps and isinstance(dm, AnnulusMap):
            shifted = nodes.rho == 0.0
            assert np.all(moved.rho[shifted] == dm.inner + eps)
        src, img, back, theta = (a[~shifted] for a in (nodes.rho, moved.rho, back, theta))
        off = back != src
        for cand in _ulp_neighbours(img[off], 2):
            assert not np.any(dm.inverse_polar(cand, theta[off], check=False)[0] == src[off])
        slope = dm.forward_polar(1.0, theta)[0] - dm.forward_polar(0.0, theta)[0]
        assert np.all(np.abs(back - src) <= 2.0 * np.spacing(img) / slope)

    @given(
        st.floats(min_value=0.2, max_value=1.0),
        st.floats(min_value=1.0, max_value=3.0),
        st.integers(min_value=1, max_value=20),
        st.sampled_from(["ocs", "carnicer", "cuyt", "spiral", "random"]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_ellipse_pull_back_returns_the_source(self, minor, stretch, order, scheme, seed):
        dm = EllipseMap(minor * stretch, minor)
        nodes = generate_nodes(scheme, order, seed)
        moved = transfer_nodes(dm, nodes)
        u, v = dm.inverse_xy(moved.x, moved.y)
        assert np.max(np.hypot(u - nodes.x, v - nodes.y)) <= 1e-15
        rho, theta = dm.pull_back(moved.x, moved.y)
        assert np.max(np.abs(rho - nodes.rho)) <= 1e-15
        arc = np.abs(rho * np.exp(1j * theta) - nodes.rho * np.exp(1j * nodes.theta))
        assert np.max(arc) <= 1e-15


@pytest.mark.parametrize(
    "family,domain_map,needs",
    [
        ("O", None, "annulus"),
        ("E", None, "ellipse"),
        ("K", AnnulusMap(0.5, 1.0), "hexagon"),
        ("C", HexagonMap(), "annulus"),
        ("H", EllipseMap(2.0, 1.0), "hexagon"),
        ("Z", HexagonMap(), "disk"),
    ],
)
def test_basis_without_its_map_rejected(family, domain_map, needs):
    with pytest.raises(ValueError, match=f"family '{family}' needs the {needs} map"):
        make_basis(family, 3, domain_map)


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("K", {}),
        ("H", {}),
        ("E", {"domain_map": EllipseMap(2.0, 1.0)}),
        ("O", {"domain_map": AnnulusMap(0.5, 1.0)}),
        ("C", {"domain_map": AnnulusMap(0.5, 1.0)}),
    ],
)
def test_orthonormality_order_6(family, kwargs):
    basis = make_basis(family, 6, kwargs.get("domain_map"))
    gram = transferred_gram(basis)
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-6


def test_make_map_dispatch():
    assert isinstance(make_map("disk"), DiskMap)
    assert isinstance(make_map("hexagon"), HexagonMap)
    assert isinstance(make_map("ellipse", semi_major=2.0, semi_minor=1.0), EllipseMap)
    assert isinstance(make_map("annulus", inner=0.5, outer=1.0), AnnulusMap)
    with pytest.raises(ValueError):
        make_map("square")
