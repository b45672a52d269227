import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_lebesgue_constant

from zernkit.collocation import (
    RADIAL_BLOCK,
    CollocationMatrix,
    assemble,
    condition_number,
    format_kappa,
    lebesgue_constant,
    require_nonsingular,
    solve_interpolation,
)
from zernkit.domains import (
    AnnulusMap,
    DiskZernikeBasis,
    EllipseMap,
    HexagonBasis,
    HexagonMap,
    make_basis,
    polygon_boundary_radius,
    transfer_nodes,
)
from zernkit.errors import DomainError, NodeCountError, SingularMatrixError
from zernkit.samplings import (
    NodeSet,
    Scheme,
    carnicer_nodes,
    generate_nodes,
    ocs_nodes,
    random_thinned_nodes,
)
from zernkit.wavefront import ZonalInterpolator, _grid_table
from zernkit.zernike import CONTAIN_TOL, zernike_xy


def _single_node_set():
    return NodeSet(0, Scheme.BOS_CUSTOM, np.array([[0.0, 0.0]]))


class TestAssemble:
    def test_first_row_all_ones_for_hexagon_plain(self):
        nodes = transfer_nodes(HexagonMap(), ocs_nodes(6))
        mat = assemble(HexagonBasis(6, "K"), nodes)
        assert np.all(mat.entries[0] == 1.0)

    def test_row_column_orientation(self):
        nodes = ocs_nodes(3)
        mat = assemble(DiskZernikeBasis(3), nodes)
        assert mat.entries[5, 2] == zernike_xy(5, nodes.x[2], nodes.y[2])

    def test_count_mismatch(self):
        with pytest.raises(NodeCountError):
            assemble(DiskZernikeBasis(4), ocs_nodes(3))

    def test_node_outside_domain(self):
        with pytest.raises(DomainError):
            assemble(HexagonBasis(3, "K"), ocs_nodes(3))  # disk nodes, not transferred

    def test_mislabelled_nodes_rejected(self):
        # disk nodes small enough to lie inside the hexagon, never transferred
        nodes = NodeSet(4, Scheme.OCS, 0.5 * ocs_nodes(4).nodes)
        with pytest.raises(DomainError, match="got disk nodes"):
            assemble(HexagonBasis(4, "K"), nodes)

    def test_provenance(self):
        mat = assemble(DiskZernikeBasis(2), ocs_nodes(2))
        assert (mat.order, mat.scheme, mat.basis, mat.domain) == (2, "ocs", "Z", "disk")


_FAMILY_MAPS = {
    "Z": None,
    "K": HexagonMap(),
    "H": HexagonMap(),
    "E": EllipseMap(2.0, 1.0),
    "O": AnnulusMap(0.5, 1.0),
    "C": AnnulusMap(0.5, 1.0),
}


def _pulling_back_to(family, t, theta):
    """Order-1 node set on the family's domain whose last node pulls back
    to disk radius t at angle theta.  On the annulus t is the node's
    affine radius (r - a)/(A - a), so t < 0 lies inside the inner circle."""
    dmap = _FAMILY_MAPS[family]
    rho = np.array([0.0, 0.3, t])
    ang = np.array([0.0, 1.0, theta])
    domain = "disk"
    if family in "OC":
        rho = dmap.inner + (dmap.outer - dmap.inner) * rho
        domain = "annulus"
    xy = np.column_stack([rho * np.cos(ang), rho * np.sin(ang)])
    nodes = NodeSet(1, Scheme.BOS_CUSTOM, xy, domain=domain)
    return transfer_nodes(dmap, nodes) if family in "KHE" else nodes


class TestContainmentTolerance:
    """``assemble`` admits a node whose pull-back lies within CONTAIN_TOL
    of the closed unit disk and rejects one beyond it, for every family."""

    angles = st.floats(min_value=-math.pi, max_value=math.pi)

    @given(family=st.sampled_from(sorted(_FAMILY_MAPS)), theta=angles)
    def test_outer_boundary(self, family, theta):
        basis = make_basis(family, 1, _FAMILY_MAPS[family])
        assemble(basis, _pulling_back_to(family, 1.0 + CONTAIN_TOL / 4, theta))
        with pytest.raises(DomainError):
            assemble(basis, _pulling_back_to(family, 1.0 + 4 * CONTAIN_TOL, theta))

    @given(family=st.sampled_from(["O", "C"]), theta=angles)
    def test_annulus_inner_boundary(self, family, theta):
        basis = make_basis(family, 1, _FAMILY_MAPS[family])
        assemble(basis, _pulling_back_to(family, -CONTAIN_TOL / 4, theta))
        with pytest.raises(DomainError):
            assemble(basis, _pulling_back_to(family, -4 * CONTAIN_TOL, theta))


class TestConstantFactorTransfer:
    """Collocation at transferred nodes reproduces the disk matrix exactly
    for the constant-weight families (times the constant for the ellipse)."""

    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt", "spiral", "random"])
    @pytest.mark.parametrize("n", [5, 10])
    def test_entrywise(self, scheme, n):
        nodes = generate_nodes(scheme, n, seed=4)
        disk = assemble(DiskZernikeBasis(n), nodes).entries
        hexed = assemble(
            HexagonBasis(n, "K"), transfer_nodes(HexagonMap(), nodes)
        ).entries
        amap = AnnulusMap(0.5, 1.0)
        ringed = assemble(
            make_basis("C", n, amap), transfer_nodes(amap, nodes, inner_eps=None)
        ).entries
        emap = EllipseMap(2.0, 1.0)
        squeezed = assemble(
            make_basis("E", n, emap), transfer_nodes(emap, nodes)
        ).entries
        assert np.max(np.abs(hexed - disk)) < 1e-13
        assert np.max(np.abs(ringed - disk)) < 1e-13
        assert np.max(np.abs(squeezed * math.sqrt(2.0) - disk)) < 1e-13

    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt", "spiral", "random"])
    def test_kappa_invariant_even_when_ill_conditioned(self, scheme):
        # the plain composed families evaluate through the exact inverse of
        # the transferred radius, so kappa matches even for the unstable
        # schemes, whose condition numbers are far too large for a
        # tolerance-based comparison
        n = 12
        nodes = generate_nodes(scheme, n, seed=9)
        k_disk = condition_number(assemble(DiskZernikeBasis(n), nodes)).kappa2
        k_hex = condition_number(
            assemble(HexagonBasis(n, "K"), transfer_nodes(HexagonMap(), nodes))
        ).kappa2
        amap = AnnulusMap(0.5, 1.0)
        k_ann = condition_number(
            assemble(make_basis("C", n, amap), transfer_nodes(amap, nodes, inner_eps=None))
        ).kappa2
        assert abs(k_hex - k_disk) <= 1e-10 * k_disk
        assert abs(k_ann - k_disk) <= 1e-10 * k_disk


class TestDiagonalScalingBound:
    @pytest.mark.parametrize("n", [4, 12, 20, 30])
    def test_weighted_hexagon_matrix_factors(self, n):
        nodes = ocs_nodes(n)
        moved = transfer_nodes(HexagonMap(), nodes)
        z = assemble(HexagonBasis(n, "K"), moved).entries
        h = assemble(HexagonBasis(n, "H"), moved).entries
        d = 1.0 / polygon_boundary_radius(moved.theta, math.pi / 6)
        assert np.max(np.abs(h - z * d)) < 1e-13

    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt"])
    @pytest.mark.parametrize("n", [3, 11, 30])
    def test_weighted_kappa_bound(self, scheme, n):
        nodes = generate_nodes(scheme, n)
        moved = transfer_nodes(HexagonMap(), nodes)
        k_disk = condition_number(assemble(DiskZernikeBasis(n), nodes)).kappa2
        k_hex = condition_number(assemble(HexagonBasis(n, "H"), moved)).kappa2
        assert k_hex <= (2.0 * math.sqrt(3.0) / 3.0) * k_disk * (1.0 + 1e-10)


class TestConditionNumber:
    def test_identity(self):
        mat = CollocationMatrix(np.eye(4), 1, "custom", "Z", "disk")
        report = condition_number(mat)
        assert report.kappa2 == 1.0
        assert report.sigma_max == report.sigma_min == 1.0

    def test_singular_reports_infinity(self):
        entries = np.ones((3, 3))
        entries[:, 2] = 0.0  # an exactly zero column survives the SVD as 0
        report = condition_number(CollocationMatrix(entries, 1, "x", "Z", "disk"))
        assert math.isinf(report.kappa2)
        assert report.sigma_min == 0.0

    def test_permutation_invariance(self):
        nodes = ocs_nodes(8)
        mat = assemble(DiskZernikeBasis(8), nodes)
        rng = np.random.default_rng(6)
        perm = rng.permutation(mat.size)
        shuffled = CollocationMatrix(
            np.ascontiguousarray(mat.entries[:, perm]), 8, "ocs", "Z", "disk"
        )
        a = condition_number(mat).kappa2
        b = condition_number(shuffled).kappa2
        assert abs(a - b) < 1e-10 * a

    def test_csv_row_format(self):
        report = condition_number(assemble(DiskZernikeBasis(1), ocs_nodes(1)))
        row = report.csv_row()
        assert row.startswith("1,ocs,Z,disk,1.0894,")

    def test_kappa_formatting(self):
        assert format_kappa(1.08941) == "1.0894"
        assert format_kappa(22562.0) == "2.2562e+04"
        assert format_kappa(math.inf) == "inf"


class TestSolve:
    def test_recovers_unit_vector(self):
        n = 5
        nodes = ocs_nodes(n)
        mat = assemble(DiskZernikeBasis(n), nodes)
        values = mat.entries[5]  # samples of basis function 5 at the nodes
        sol = solve_interpolation(mat, values)
        expected = np.zeros(mat.size)
        expected[5] = 1.0
        assert np.max(np.abs(sol.coefficients - expected)) < 1e-8

    def test_zero_values_zero_coefficients(self):
        mat = assemble(DiskZernikeBasis(3), ocs_nodes(3))
        sol = solve_interpolation(mat, np.zeros(mat.size))
        assert np.all(sol.coefficients == 0.0)
        assert sol.residual == 0.0

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_off_node_reproduction(self, n):
        rng = np.random.default_rng(n)
        nodes = carnicer_nodes(n)
        basis = DiskZernikeBasis(n)
        mat = assemble(basis, nodes)
        coeffs = rng.standard_normal(mat.size)
        values = mat.entries.T @ coeffs
        sol = solve_interpolation(mat, values)
        # evaluate both at 500 fresh points inside the disk
        rho = 0.999 * np.sqrt(rng.random(500))
        theta = 2 * np.pi * rng.random(500)
        x, y = rho * np.cos(theta), rho * np.sin(theta)
        truth = sum(c * zernike_xy(j, x, y) for j, c in enumerate(coeffs))
        recon = sum(c * zernike_xy(j, x, y) for j, c in enumerate(sol.coefficients))
        scale = np.max(np.abs(truth))
        assert np.max(np.abs(recon - truth)) < 1e-6 * scale

    def test_working_precision_rule(self):
        eps = np.finfo(float).eps

        def diagonal(sigma):
            entries = np.diag(sigma)
            # the SVD of a diagonal matrix returns its entries exactly
            assert np.array_equal(np.linalg.svd(entries, compute_uv=False), sigma)
            return CollocationMatrix(entries, 1, "custom", "Z", "disk")

        require_nonsingular(diagonal([1.0, 1.0, 6.0 * eps]))
        with pytest.raises(
            SingularMatrixError, match=r"\(custom, Z, n=1\) is singular"
        ) as err:
            require_nonsingular(diagonal([2.0, 1.0, 6.0 * eps]))
        assert err.value.sigma_min == 6.0 * eps

    def test_singular_carries_sigma_min(self):
        amap = AnnulusMap(0.5, 1.0)
        nodes = transfer_nodes(amap, ocs_nodes(4), inner_eps=None)
        mat = assemble(make_basis("O", 4, amap), nodes)  # zero column
        with pytest.raises(SingularMatrixError) as err:
            solve_interpolation(mat, np.ones(mat.size))
        assert err.value.sigma_min == 0.0


class TestOneSingularityRule:
    """Solves, Lebesgue estimates and the zonal interpolator refuse the same
    matrices, with the same sigma_min."""

    @staticmethod
    def _near_double(delta):
        # ocs_nodes(2) with node 1 moved to within delta of node 0
        points = np.array(ocs_nodes(2).nodes)
        points[1] = points[0] + [delta, 0.0]
        return NodeSet(2, Scheme.BOS_CUSTOM, points)

    @staticmethod
    def _callers(disk_nodes):
        # each inverts the K-family matrix at the nodes moved onto the hexagon
        basis = HexagonBasis(2, "K")
        nodes = transfer_nodes(HexagonMap(), disk_nodes)
        matrix = assemble(basis, nodes)
        calls = (
            lambda: solve_interpolation(matrix, np.ones(basis.size)),
            lambda: lebesgue_constant(nodes, basis, grid_shape=(10, 16)),
            lambda: ZonalInterpolator(disk_nodes, "K", _grid_table(2)),
        )
        return condition_number(matrix), calls

    def test_all_accept_above_working_precision(self):
        report, calls = self._callers(self._near_double(1e-13))
        assert 6 * np.finfo(float).eps * report.kappa2 < 0.5
        for call in calls:
            call()

    def test_all_refuse_at_working_precision(self):
        report, calls = self._callers(self._near_double(1e-15))
        assert 6 * np.finfo(float).eps * report.kappa2 > 2.0
        for call in calls:
            with pytest.raises(SingularMatrixError) as err:
                call()
            assert err.value.sigma_min == report.sigma_min


class TestAnnulusTable:
    def test_full_sqrt_jacobian_columns(self):
        # all thirty published rows, including the odd/even alternation
        # caused by the shifted center node at even orders
        from reference_tables import ANNULUS_KAPPA

        amap = AnnulusMap(0.5, 1.0)
        for n, row in ANNULUS_KAPPA.items():
            basis = make_basis("O", n, amap)
            tol = 1e-3 if n <= 10 else 1e-2
            for scheme, want in zip(("cuyt", "carnicer", "ocs"), row):
                nodes = transfer_nodes(
                    amap, generate_nodes(scheme, n), inner_eps=0.01
                )
                got = condition_number(assemble(basis, nodes)).kappa2
                assert abs(got - want) < tol * want, (scheme, n, got, want)


class TestInnerCircleSingularity:
    def test_kappa_grows_as_shift_shrinks(self):
        amap = AnnulusMap(0.5, 1.0)
        nodes = ocs_nodes(6)
        kappas = []
        for eps in (1e-2, 1e-4, 1e-6):
            moved = transfer_nodes(amap, nodes, inner_eps=eps)
            kappas.append(
                condition_number(assemble(make_basis("O", 6, amap), moved)).kappa2
            )
        assert kappas[0] < kappas[1] < kappas[2]

    def test_unshifted_matrix_singular(self):
        amap = AnnulusMap(0.5, 1.0)
        moved = transfer_nodes(amap, ocs_nodes(6), inner_eps=None)
        report = condition_number(assemble(make_basis("O", 6, amap), moved))
        assert math.isinf(report.kappa2)


_LEBESGUE_MAPS = {
    "Z": None,
    "K": HexagonMap(),
    "H": HexagonMap(),
    "E": EllipseMap(2.0, 1.0),
    "O": AnnulusMap(0.5, 1.0),
    "C": AnnulusMap(0.5, 1.0),
}


def _forward_xy(domain_map, x, y):
    """A radial map's forward map on Cartesian points: (x, y) R(atan2(y, x))
    for the hexagon, radius a + (A - a) hypot(x, y) along the same angle
    for the annulus."""
    theta = np.arctan2(y, x)
    if isinstance(domain_map, HexagonMap):
        scale = polygon_boundary_radius(theta)
        return x * scale, y * scale
    s = domain_map.inner + (domain_map.outer - domain_map.inner) * np.hypot(x, y)
    return s * np.cos(theta), s * np.sin(theta)


class TestLebesgue:
    def test_single_node(self):
        basis = DiskZernikeBasis(0)
        assert lebesgue_constant(_single_node_set(), basis) == pytest.approx(1.0)

    @pytest.mark.parametrize("scheme,n", [("ocs", 6), ("carnicer", 6), ("cuyt", 4)])
    def test_at_least_one(self, scheme, n):
        nodes = generate_nodes(scheme, n)
        assert lebesgue_constant(nodes, DiskZernikeBasis(n)) >= 1.0

    def test_ocs_beats_random_thinning(self):
        n = 10
        basis = DiskZernikeBasis(n)
        lam_ocs = lebesgue_constant(ocs_nodes(n), basis, grid_shape=(100, 256))
        for seed in range(5):
            lam_rand = lebesgue_constant(
                random_thinned_nodes(n, seed), basis, grid_shape=(100, 256)
            )
            assert lam_ocs < lam_rand

    @pytest.mark.parametrize(
        "basis",
        [
            HexagonBasis(4, "K"),
            HexagonBasis(4, "H"),
            make_basis("C", 4, AnnulusMap(0.5, 1.0)),
            make_basis("O", 4, AnnulusMap(0.5, 1.0)),
        ],
    )
    def test_polar_grid_matches_cartesian_mapping(self, basis):
        # the grid goes through forward_polar; mapping it with a Cartesian
        # form of the map and evaluating in Cartesian coordinates gives the
        # same constant
        nodes = transfer_nodes(basis.map, ocs_nodes(4))
        n_r, n_t = 30, 64
        rho = np.repeat((np.arange(n_r) + 1.0) / n_r, n_t)
        ang = np.tile(2.0 * np.pi * np.arange(n_t) / n_t, n_r)
        fx, fy = _forward_xy(basis.map, rho * np.cos(ang), rho * np.sin(ang))
        lagrange = np.linalg.solve(
            assemble(basis, nodes).entries, basis.matrix_xy(fx, fy, check=False)
        )
        want = np.max(np.sum(np.abs(lagrange), axis=0))
        got = lebesgue_constant(nodes, basis, grid_shape=(n_r, n_t))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("family", list("ZKHEOC"))
    @given(
        order=st.integers(1, 8),
        scheme=st.sampled_from(["ocs", "cuyt"]),
        # one radius, fewer than a block, and a ragged last block
        n_r=st.one_of(
            st.just(1),
            st.integers(2, RADIAL_BLOCK - 1),
            st.integers(RADIAL_BLOCK + 1, 5 * RADIAL_BLOCK).filter(
                lambda k: k % RADIAL_BLOCK
            ),
        ),
        n_t=st.integers(1, 48),
    )
    @settings(max_examples=40)
    def test_matches_dense_oracle(self, family, order, scheme, n_r, n_t):
        domain_map = _LEBESGUE_MAPS[family]
        nodes = generate_nodes(scheme, order)
        if domain_map is not None:
            nodes = transfer_nodes(
                domain_map, nodes, inner_eps=0.01 if family == "O" else None
            )
        basis = make_basis(family, order, domain_map)
        want = dense_lebesgue_constant(nodes, family, domain_map, (n_r, n_t))
        got = lebesgue_constant(nodes, basis, grid_shape=(n_r, n_t))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("grid_shape", [(0, 16), (10, 0)])
    def test_empty_grid_rejected(self, grid_shape):
        with pytest.raises(ValueError):
            lebesgue_constant(ocs_nodes(2), DiskZernikeBasis(2), grid_shape=grid_shape)

    def test_exactly_singular_matrix_raises(self):
        # the disk center goes onto the inner circle, where the O weight
        # vanishes: that node's column of the collocation matrix is zero
        domain_map = AnnulusMap(0.5, 1.0)
        nodes = transfer_nodes(domain_map, ocs_nodes(4), inner_eps=None)
        with pytest.raises(SingularMatrixError) as err:
            lebesgue_constant(
                nodes, make_basis("O", 4, domain_map), grid_shape=(10, 16)
            )
        assert err.value.sigma_min == 0.0

    def test_transferred_domain_grid(self):
        nodes = transfer_nodes(HexagonMap(), ocs_nodes(4))
        lam = lebesgue_constant(nodes, HexagonBasis(4, "K"), grid_shape=(60, 128))
        assert lam >= 1.0
