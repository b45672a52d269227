import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_lagrange, dense_lebesgue_constant

from zernkit import collocation, wavefront
from zernkit.collocation import (
    MIRROR_MIN_SIZE,
    CollocationMatrix,
    assemble,
    condition_number,
    format_kappa,
    lebesgue_constant,
    require_nonsingular,
    scaled_nonsingular,
    solve_interpolation,
)
from zernkit.domains import (
    AnnulusMap,
    DiskMap,
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
    approximate_fekete,
    carnicer_nodes,
    generate_nodes,
    load_nodes,
    ocs_nodes,
    random_thinned_nodes,
    save_nodes,
    spiral_nodes,
)
from zernkit.wavefront import run_experiment
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
        assert (mat.order, mat.scheme, mat.basis) == (2, "ocs", "Z")


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


    @pytest.mark.parametrize(
        "scheme", ["ocs", "cuyt", "carnicer", "approx-fekete", "spiral", "random"]
    )
    def test_lebesgue_constant_equals_disk(self, scheme):
        # the Lagrange functions of Z o phi^-1 at the moved nodes are the
        # disk's composed with phi^-1, so Lambda over the image of the disk
        # grid is Lambda_Z.  The entries differ by rounding, which moves the
        # Lagrange functions by up to about kappa N eps relative.  Measured:
        # at most 0.16 of that (C, ocs, n = 2); the largest difference is
        # 2.3e-11 relative (K, random, n = 20, kappa 2.5e6); 39 of the 90
        # cells agree bit for bit.  Without inner_eps=None the annulus's
        # centre-node shift moves Lambda by up to 1.6e-3.
        maps = {k: _LEBESGUE_MAPS[k] for k in "KEC"}
        for n in (1, 2, 5, 10, 20):
            nodes = generate_nodes(scheme, n)
            disk = DiskZernikeBasis(n)
            want = lebesgue_constant(nodes, disk)
            kappa = condition_number(assemble(disk, nodes)).kappa2
            tol = kappa * disk.size * np.finfo(float).eps * want
            for family, domain_map in maps.items():
                moved = transfer_nodes(domain_map, nodes, inner_eps=None)
                got = lebesgue_constant(moved, make_basis(family, n, domain_map))
                assert abs(got - want) <= tol, (family, n, got, want)


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


def _kappa(basis, nodes):
    return condition_number(assemble(basis, nodes)).kappa2


def _assert_two_sided(kappa_w, kappa_partner, weights):
    # kappa_partner / kappa(D) <= kappa_w <= kappa_partner * kappa(D) with
    # kappa(D) = max w / min w: the weighted matrix is its partner's columns
    # scaled by the node weights
    kappa_d = weights.max() / weights.min()
    assert kappa_partner / kappa_d <= kappa_w * (1.0 + 1e-10)
    assert kappa_w <= kappa_partner * kappa_d * (1.0 + 1e-10)


class TestTwoSidedConditionBound:
    """The paper's bound for a weighted family against its constant-weight
    partner on the same nodes, at every order of the condition tables."""

    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt"])
    def test_hexagon_h_against_k(self, scheme):
        for n in range(1, 31):
            moved = transfer_nodes(HexagonMap(), generate_nodes(scheme, n))
            weights = 1.0 / polygon_boundary_radius(moved.theta, math.pi / 6)
            _assert_two_sided(
                _kappa(HexagonBasis(n, "H"), moved),
                _kappa(HexagonBasis(n, "K"), moved),
                weights,
            )

    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt"])
    @pytest.mark.parametrize("inner, eps", [(0.5, 1e-2), (0.3, 1e-4)])
    def test_annulus_o_against_c(self, scheme, inner, eps):
        annulus = AnnulusMap(inner, 1.0)
        for n in range(1, 31):
            moved = transfer_nodes(annulus, generate_nodes(scheme, n), inner_eps=eps)
            # sqrt|J| = sqrt((r - a)/r)/(A - a); the shift keeps r > a
            r = moved.rho
            assert r.min() > inner
            weights = np.sqrt((r - inner) / r) / (1.0 - inner)
            _assert_two_sided(
                _kappa(make_basis("O", n, annulus), moved),
                _kappa(make_basis("C", n, annulus), moved),
                weights,
            )


def _weighted_pair(pair, nodes, inner, eps):
    """(map, moved nodes, weighted basis F, partner G) for ``pair`` "HK"
    (the hexagon) or "OC" (the annulus of inner radius ``inner``, centre
    node shifted by ``eps``), both families on the same moved nodes."""
    if pair == "HK":
        domain_map = HexagonMap()
        moved = transfer_nodes(domain_map, nodes)
    else:
        domain_map = AnnulusMap(inner, 1.0)
        moved = transfer_nodes(domain_map, nodes, inner_eps=eps)
    weighted, plain = (make_basis(f, nodes.order, domain_map) for f in pair)
    return domain_map, moved, weighted, plain


class TestWeightedLebesgueBound:
    """The Lebesgue counterpart of ``TestTwoSidedConditionBound``.  At the
    same nodes a weighted family F = G w has the Lagrange functions
    l^F_j(x) = w(x) l^G_j(x)/w(x_j) of its constant-weight partner G, so on
    any grid (min_x w / max_j w(x_j)) Lambda_G <= Lambda_F
    <= (max_x w / min_j w(x_j)) Lambda_G."""

    @given(
        pair=st.sampled_from(["HK", "OC"]),
        scheme=st.sampled_from(["ocs", "cuyt", "carnicer"]),
        n=st.integers(1, 30),
        inner=st.sampled_from([0.3, 0.5, 0.7]),
        eps=st.sampled_from([1e-2, 1e-4]),
    )
    @settings(max_examples=60)
    def test_two_sided(self, pair, scheme, n, inner, eps):
        # a coarse grid: the identity holds pointwise on any grid
        n_r, n_t = 50, 128
        r = (np.arange(n_r) + 1.0) / n_r
        t = 2.0 * np.pi * np.arange(n_t) / n_t
        domain_map, moved, weighted, plain = _weighted_pair(
            pair, generate_nodes(scheme, n), inner, eps
        )
        if pair == "HK":
            # sqrt|J| = 1/R(theta); the map keeps angles
            node_w = 1.0 / polygon_boundary_radius(moved.theta, math.pi / 6)
            grid_w = 1.0 / polygon_boundary_radius(t, math.pi / 6)
        else:
            # sqrt|J| = sqrt((s - a)/s)/(A - a) at the image radius s
            node_w = np.sqrt((moved.rho - inner) / moved.rho) / (1.0 - inner)
            s = inner + (1.0 - inner) * r
            grid_w = np.sqrt((s - inner) / s) / (1.0 - inner)
        lam_f = lebesgue_constant(moved, weighted, grid_shape=(n_r, n_t))
        lam_g = lebesgue_constant(moved, plain, grid_shape=(n_r, n_t))
        # the rounding slack of TestConstantFactorTransfer, for the worse of
        # the two matrices
        kappa = max(_kappa(weighted, moved), _kappa(plain, moved))
        slack = kappa * weighted.size * np.finfo(float).eps
        low = grid_w.min() / node_w.max() * lam_g
        high = grid_w.max() / node_w.min() * lam_g
        assert low * (1.0 - slack) <= lam_f <= high * (1.0 + slack), (low, lam_f, high)

    @pytest.mark.parametrize(
        "pair,inner,eps", [("HK", None, None), ("OC", 0.3, 1e-2), ("OC", 0.7, 1e-4)]
    )
    @pytest.mark.parametrize("scheme,n", [("ocs", 3), ("ocs", 6), ("cuyt", 5)])
    def test_pointwise_identity(self, pair, inner, eps, scheme, n):
        # the grid weight is the one lebesgue_constant multiplies by
        n_r, n_t = 7, 24
        domain_map, moved, _, _ = _weighted_pair(
            pair, generate_nodes(scheme, n), inner, eps
        )
        rho = np.repeat((np.arange(n_r) + 1.0) / n_r, n_t)
        theta = np.tile(2.0 * np.pi * np.arange(n_t) / n_t, n_r)
        grid_w = domain_map.image_weight(rho, theta)
        node_w = domain_map.weigh(np.ones(len(moved)), moved.rho, moved.theta)
        got = dense_lagrange(moved, pair[0], domain_map, (n_r, n_t))
        want = grid_w * dense_lagrange(moved, pair[1], domain_map, (n_r, n_t))
        want /= node_w[:, None]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt"])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_annulus_o_kappa_grows_as_inverse_sqrt_eps(scheme, order):
    # The centre node of an even-order Bos array lands at r = a + eps(A - a),
    # where the sqrt|J| weight is about sqrt(eps), so kappa_O grows as
    # eps^(-1/2): tenfold per hundredfold smaller eps.  Measured: the step
    # 1e-2 -> 1e-4 is 1.0-1.9% short of tenfold at these orders (3.6% at
    # order 10, and more as the other nodes' share of kappa grows), the step
    # 1e-4 -> 1e-6 within 0.02%.  Odd orders have no centre node.
    annulus = AnnulusMap(0.5, 1.0)
    nodes = generate_nodes(scheme, order)
    kappas = [
        _kappa(
            make_basis("O", order, annulus),
            transfer_nodes(annulus, nodes, inner_eps=eps),
        )
        for eps in (1e-2, 1e-4, 1e-6)
    ]
    assert kappas[1] / kappas[0] == pytest.approx(10.0, rel=0.03)
    assert kappas[2] / kappas[1] == pytest.approx(10.0, rel=1e-3)


class TestConditionNumber:
    def test_identity(self):
        mat = CollocationMatrix(np.eye(4), 1, "custom", "Z")
        report = condition_number(mat)
        assert report.kappa2 == 1.0
        assert report.sigma_max == report.sigma_min == 1.0

    def test_singular_reports_infinity(self):
        entries = np.ones((3, 3))
        entries[:, 2] = 0.0  # an exactly zero column survives the SVD as 0
        report = condition_number(CollocationMatrix(entries, 1, "x", "Z"))
        assert math.isinf(report.kappa2)
        assert report.sigma_min == 0.0

    def test_permutation_invariance(self):
        nodes = ocs_nodes(8)
        mat = assemble(DiskZernikeBasis(8), nodes)
        rng = np.random.default_rng(6)
        perm = rng.permutation(mat.size)
        shuffled = CollocationMatrix(
            np.ascontiguousarray(mat.entries[:, perm]), 8, "ocs", "Z"
        )
        a = condition_number(mat).kappa2
        b = condition_number(shuffled).kappa2
        assert abs(a - b) < 1e-10 * a

    def test_kappa_formatting(self):
        assert format_kappa(1.08941) == "1.0894"
        assert format_kappa(22562.0) == "2.2562e+04"
        assert format_kappa(math.inf) == "inf"


def _full_sigma(matrix):
    sigma = np.linalg.svd(matrix.entries, compute_uv=False)
    return float(sigma[0]), float(sigma[-1])


class TestMirrorSplit:
    """Bos-array matrices from order 11 on are split in two by the mirror
    y -> -y; everything else, and every split that fails its guard, gets
    the full SVD bit for bit."""

    @pytest.mark.parametrize(
        "family,domain_map",
        [
            ("Z", DiskMap()),
            ("K", HexagonMap()),
            ("H", HexagonMap()),
            ("E", EllipseMap(1.0, 0.6)),
            ("O", AnnulusMap(0.5, 1.0)),
            ("O", AnnulusMap(0.3, 1.0)),  # where the ulp snap moves nodes
            ("C", AnnulusMap(0.5, 1.0)),
        ],
    )
    def test_split_matches_full_svd(self, family, domain_map):
        for scheme in ("ocs", "carnicer", "cuyt"):
            for n in range(1, 31):
                disk = generate_nodes(scheme, n)
                nodes = transfer_nodes(domain_map, disk, inner_eps=0.01)
                matrix = assemble(make_basis(family, n, domain_map), nodes)
                report = condition_number(matrix)
                s_max, s_min = _full_sigma(matrix)
                if matrix.size < MIRROR_MIN_SIZE:
                    assert report.off_block is None
                    assert (report.sigma_max, report.sigma_min) == (s_max, s_min)
                else:
                    assert report.off_block is not None, (scheme, n)
                    assert report.sigma_max == pytest.approx(s_max, rel=1e-12)
                    assert report.sigma_min == pytest.approx(s_min, rel=1e-12)

    def _assert_full_path(self, nodes, basis):
        matrix = assemble(basis, nodes)
        assert matrix.size >= MIRROR_MIN_SIZE
        report = condition_number(matrix)
        assert report.off_block is None
        assert (report.sigma_max, report.sigma_min) == _full_sigma(matrix)

    def test_perturbed_pair_takes_full_path(self):
        nodes = ocs_nodes(12)
        points = np.array(nodes.nodes)
        points[nodes.mirror[1]] += [0.0, 1e-6]  # node 1's mirror leaves y = -y_1
        moved = dataclasses.replace(nodes, nodes=points, polar=None)
        assert np.array_equal(moved.mirror, nodes.mirror)
        self._assert_full_path(moved, DiskZernikeBasis(12))

    def test_no_pairs_take_full_path(self):
        # every node its own mirror: no pairs, so no square blocks
        nodes = dataclasses.replace(ocs_nodes(12), mirror=np.arange(91))
        self._assert_full_path(nodes, DiskZernikeBasis(12))

    def test_split_never_decides_singularity(self):
        # eps 0 leaves the center node on the inner circle, where O vanishes
        amap = AnnulusMap(0.5, 1.0)
        nodes = transfer_nodes(amap, ocs_nodes(12), inner_eps=0)
        assert nodes.mirror is not None
        basis = make_basis("O", 12, amap)
        self._assert_full_path(nodes, basis)
        with pytest.raises(SingularMatrixError):
            require_nonsingular(assemble(basis, nodes))

    def test_sets_without_mirror_take_full_path(self, tmp_path):
        path = tmp_path / "ocs.txt"
        save_nodes(path, ocs_nodes(12))
        sets = [
            spiral_nodes(12),
            random_thinned_nodes(12, seed=3),
            approximate_fekete(12, 910),
            load_nodes(path, 12),
            NodeSet(12, Scheme.BOS_CUSTOM, ocs_nodes(12).nodes),
        ]
        for nodes in sets:
            assert nodes.mirror is None
            self._assert_full_path(nodes, DiskZernikeBasis(12))


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
            return CollocationMatrix(entries, 1, "custom", "Z")

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
    """Solves, Lebesgue estimates and the zonal wavefront cells refuse the
    same matrices, with the same sigma_min."""

    @staticmethod
    def _near_double(delta):
        # ocs_nodes(2) with node 1 moved to within delta of node 0
        points = np.array(ocs_nodes(2).nodes)
        points[1] = points[0] + [delta, 0.0]
        return NodeSet(2, Scheme.BOS_CUSTOM, points)

    @staticmethod
    def _callers(disk_nodes):
        # (report of the matrix it inverts, call) per caller: the K family's
        # matrix at the nodes moved onto the hexagon, and the zonal K and H
        # cells', where run_experiment takes H's verdict after K's
        basis = HexagonBasis(2, "K")
        nodes = transfer_nodes(HexagonMap(), disk_nodes)
        matrix = assemble(basis, nodes)
        report = condition_number(matrix)
        h_report = condition_number(assemble(HexagonBasis(2, "H"), nodes))
        solve_families = wavefront._solve_families

        def zonal(cell):
            # cell 0 (K) or 1 (H) of run_experiment, its refusal raised from
            # the outcomes that mark it
            outcomes = []

            def recorded(*args):
                solved = solve_families(*args)
                outcomes.extend(solved[0])
                return solved

            with mock.patch.object(wavefront, "_solve_families", recorded):
                cells = run_experiment(
                    [2], 1, bases=("K", "H"),
                    node_provider=lambda scheme, order, seed: disk_nodes,
                )
            if cells[cell].error is not None:
                assert cells[cell].error == type(outcomes[cell]).__name__
                raise outcomes[cell]

        return [
            (report, lambda: solve_interpolation(matrix, np.ones(basis.size))),
            (report, lambda: lebesgue_constant(nodes, basis, grid_shape=(10, 16))),
            (report, lambda: zonal(0)),
            (h_report, lambda: zonal(1)),
        ]

    def test_all_accept_above_working_precision(self):
        for report, call in self._callers(self._near_double(1e-13)):
            assert 6 * np.finfo(float).eps * report.kappa2 < 0.5
            call()

    def test_all_refuse_at_working_precision(self):
        for report, call in self._callers(self._near_double(1e-15)):
            assert 6 * np.finfo(float).eps * report.kappa2 > 2.0
            with pytest.raises(SingularMatrixError) as err:
                call()
            assert err.value.sigma_min == report.sigma_min


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    log_kappa=st.floats(0.0, 17.0),
    log_spread=st.floats(0.0, 3.0),
)
def test_scaled_certificate_implies_the_rule(seed, size, log_kappa, log_spread):
    # K with singular values from 1 down to 10^-log_kappa, and positive
    # column weights w with max w / min w up to 10^log_spread
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((size, size)))
    v, _ = np.linalg.qr(rng.standard_normal((size, size)))
    k = (u * np.logspace(0.0, -log_kappa, size)) @ v.T
    w = 10.0 ** rng.uniform(-log_spread / 2, log_spread / 2, size)
    report = condition_number(CollocationMatrix(k, 1, "random", "K"))
    scaled = CollocationMatrix(k * w, 1, "random", "H")
    certified = scaled_nonsingular(report.sigma_min, report.sigma_max, w)
    if certified:
        require_nonsingular(scaled)
    # far from the rule's tolerance the certificate always speaks
    if log_kappa + math.log10(w.max() / w.min()) < 8.0:
        assert certified
    # sigma_i(K) min w <= sigma_i(K w) <= sigma_i(K) max w, up to rounding
    sigma = np.linalg.svd(k, compute_uv=False)
    got = np.linalg.svd(k * w, compute_uv=False)
    slack = 8 * size * np.finfo(float).eps * sigma[0] * w.max()
    assert np.all(got >= sigma * w.min() - slack)
    assert np.all(got <= sigma * w.max() + slack)


# the hexagon's node weights q = 1/R(theta) lie in [1, 2/sqrt3]
HEXAGON_WEIGHTS = (1.0, 2.0 / math.sqrt(3.0))


def _check_cholesky_bounds(matrix, rng):
    """The bounds of ``_cholesky_bounds`` bracket the SVD's sigma, up to
    its backward error, and any verdict they give for the matrix, or for
    it times hexagon node weights, is the rule's.  Returns the bounds."""
    bounds = collocation._cholesky_bounds(matrix)
    if bounds is None:
        return None
    low, high = bounds
    a, n = matrix.entries, matrix.size
    sigma = np.linalg.svd(a, compute_uv=False)
    assert 0.0 < low <= sigma[-1] + n * np.finfo(float).eps * sigma[0]
    assert high >= sigma[0] * (1.0 - n * np.finfo(float).eps)
    if scaled_nonsingular(low, high, np.ones(n)):
        require_nonsingular(matrix)
    scale = rng.uniform(*HEXAGON_WEIGHTS, n)
    if scaled_nonsingular(low, high, scale):
        require_nonsingular(dataclasses.replace(matrix, entries=a * scale))
    return bounds


def _mirrored(mirror, order, cos_block, sin_block, coupling, rng):
    """Entries A whose mirror column change (``_mirror_blocks``) gives the
    cosine block C and the sine block S, with off-blocks that make
    A Q (v, w) = (1 - coupling) (C v, S w) for random v and w: singular at
    coupling 1, the blocks exactly at 0."""
    n = mirror.size
    index = np.arange(n)
    fixed, p = index[mirror == index], index[mirror > index]
    sine = collocation._row_frequencies(order)[1] < 0
    v = rng.standard_normal(cos_block.shape[1])
    w = rng.standard_normal(sin_block.shape[1])
    evens, odds = np.empty((n, v.size)), np.empty((n, w.size))
    evens[~sine], odds[sine] = cos_block, sin_block
    odds[~sine] = -coupling * np.outer(cos_block @ v, w) / (w @ w)
    evens[sine] = -coupling * np.outer(sin_block @ w, v) / (v @ v)
    entries = np.empty((n, n))
    entries[:, fixed] = evens[:, : fixed.size]
    pairs = evens[:, fixed.size :]
    entries[:, p] = (pairs + odds) * math.sqrt(0.5)
    entries[:, mirror[p]] = (pairs - odds) * math.sqrt(0.5)
    return entries


def _with_singular_values(sigma, rng):
    size = len(sigma)
    u, _ = np.linalg.qr(rng.standard_normal((size, size)))
    v, _ = np.linalg.qr(rng.standard_normal((size, size)))
    return (u * sigma) @ v.T


def _root(sigma):
    # sqrt((N + 1) eps) ||sigma||, about half the certificate's threshold
    return math.sqrt((len(sigma) + 1) * np.finfo(float).eps) * np.linalg.norm(sigma)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(1, 20),
    regime=st.sampled_from(["kappa", "near", "coupled"]),
    mirrored=st.booleans(),
    x=st.floats(0.0, 17.0),
)
def test_cholesky_bounds_are_sound(seed, order, regime, mirrored, x):
    # sigma (N up to 231) from 1 down to sigma_min: 10^-x across the
    # rule's N eps ("kappa"), or 10^(x/17 - 0.3) sqrt((N + 1) eps) ||sigma||
    # across the certificate's own threshold ("near"), the rest within
    # three decades of 1.  A mirrored matrix has two such blocks;
    # "coupled" adds off-blocks that bring it within 10^-x of singular
    rng = np.random.default_rng(seed)
    mirror = generate_nodes("ocs", order).mirror
    n = mirror.size
    span = x if regime == "kappa" else 3.0 * x / 17.0
    sigma = np.sort(10.0 ** rng.uniform(-span, 0.0, n))[::-1]
    sigma[0] = 1.0
    if regime == "kappa":
        sigma[-1] = 10.0**-x
    elif regime == "near":
        sigma[-1] = 0.0
        sigma[-1] = _root(sigma) * 10.0 ** (x / 17.0 - 0.3)
    coupling = 1.0 - 10.0**-x if regime == "coupled" else 0.0
    if mirrored or regime == "coupled":
        sine = np.count_nonzero(collocation._row_frequencies(order)[1] < 0)
        halves = rng.permutation(sigma)
        entries = _mirrored(
            mirror, order,
            _with_singular_values(halves[sine:], rng),
            _with_singular_values(halves[:sine], rng),
            coupling, rng,
        )
    else:
        mirror, entries = None, _with_singular_values(sigma, rng)
    matrix = CollocationMatrix(entries, order, "random", "K", mirror)
    bounds = _check_cholesky_bounds(matrix, rng)
    # well clear of its threshold the certificate speaks
    if coupling == 0.0 and sigma[-1] > 3.0 * _root(sigma):
        assert bounds is not None


def test_cholesky_bounds_threshold():
    # the factorizations succeed from sigma_min = 2 sqrt((N + 1) eps)
    # ||sigma|| on, where the shift 4 t = 4 (N + 1) eps ||A||_F^2 lies
    rng = np.random.default_rng(29)
    for size in (3, 45, 231):
        sigma = np.linspace(1.0, 0.1, size)
        sigma[-1] = 0.0
        root = _root(sigma)
        u, _ = np.linalg.qr(rng.standard_normal((size, size)))
        v, _ = np.linalg.qr(rng.standard_normal((size, size)))
        for factor in np.linspace(1.5, 3.0, 16):
            sigma[-1] = factor * root
            matrix = CollocationMatrix((u * sigma) @ v.T, 1, "random", "K")
            bounds = _check_cholesky_bounds(matrix, rng)
            if factor < 1.9 or factor > 2.2:
                assert (bounds is not None) == (factor > 2.2), (size, factor)


@pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt", "spiral", "random"])
def test_cholesky_bounds_of_the_wavefront_matrices(scheme):
    # the K matrices of the zonal cells: every Bos set is certified, by
    # its two mirror blocks
    rng = np.random.default_rng(29)
    for order in range(1, 21):
        nodes = transfer_nodes(HexagonMap(), generate_nodes(scheme, order))
        bounds = _check_cholesky_bounds(assemble(HexagonBasis(order, "K"), nodes), rng)
        if scheme in ("ocs", "carnicer", "cuyt"):
            assert bounds is not None, order


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


def _lebesgue_case(family, scheme, order):
    """A generated disk set carried to the family's domain, and the basis."""
    domain_map = _LEBESGUE_MAPS[family]
    nodes = generate_nodes(scheme, order)
    if domain_map is not None:
        nodes = transfer_nodes(
            domain_map, nodes, inner_eps=0.01 if family == "O" else None
        )
    return nodes, make_basis(family, order, domain_map)


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
            assemble(basis, nodes).entries, basis.matrix_xy(fx, fy)
        )
        want = np.max(np.sum(np.abs(lagrange), axis=0))
        got = lebesgue_constant(nodes, basis, grid_shape=(n_r, n_t))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("family", list("ZKHEOC"))
    @given(
        order=st.integers(1, 8),
        scheme=st.sampled_from(["ocs", "cuyt"]),
        n_t=st.integers(1, 48),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_matches_dense_oracle(self, family, order, scheme, n_t, data):
        nodes, basis = _lebesgue_case(family, scheme, order)
        matrix = assemble(basis, nodes)
        half = collocation._mirror_holds(matrix, condition_number(matrix))
        block = collocation._radial_block(basis.size, n_t // 2 + 1 if half else n_t)
        # one radius, fewer than a block, and a ragged last block
        n_r = data.draw(
            st.one_of(
                st.just(1),
                st.integers(2, block - 1),
                st.integers(block + 1, 3 * block).filter(lambda k: k % block),
            )
        )
        want = dense_lebesgue_constant(
            nodes, family, _LEBESGUE_MAPS[family], (n_r, n_t)
        )
        got = lebesgue_constant(nodes, basis, grid_shape=(n_r, n_t))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "family,scheme,order",
        [(f, s, n) for f in "ZHO" for s in ("ocs", "cuyt") for n in (20, 30)]
        + [("Z", "approx-fekete", 12)],
    )
    def test_chunked_contraction_matches_dense_oracle(self, family, scheme, order):
        # enough radii for three contraction chunks, the last one ragged
        nodes, basis = _lebesgue_case(family, scheme, order)
        n_t = 16
        matrix = assemble(basis, nodes)
        half = collocation._mirror_holds(matrix, condition_number(matrix))
        block = collocation._radial_block(basis.size, n_t // 2 + 1 if half else n_t)
        n_freqs = 2 * order + 1
        chunk = collocation._contract_chunk(10**9, basis.size, n_freqs, block)
        n_r = 2 * chunk + chunk // 2 + 1
        assert collocation._contract_chunk(n_r, basis.size, n_freqs, block) == chunk
        assert n_r % chunk
        want = dense_lebesgue_constant(
            nodes, family, _LEBESGUE_MAPS[family], (n_r, n_t)
        )
        got = lebesgue_constant(nodes, basis, grid_shape=(n_r, n_t))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("family", list("ZHO"))
    def test_chunk_size_changes_no_bit(self, family, monkeypatch):
        # one Lagrange block per chunk, the default (one chunk at order 10,
        # two at order 20) and the whole grid in one chunk sum the same
        # products in the same order
        for scheme in ("ocs", "approx-fekete"):
            for order in (10, 20):
                nodes, basis = _lebesgue_case(family, scheme, order)
                got = []
                for values in (1, collocation.CONTRACT_VALUES, 2**40):
                    monkeypatch.setattr(collocation, "CONTRACT_VALUES", values)
                    lam = lebesgue_constant(nodes, basis, grid_shape=(60, 64))
                    got.append(lam.hex())
                assert got[0] == got[1] == got[2], (scheme, order)

    def test_peak_memory_at_order_30(self):
        # the contraction of the whole default grid alone is 48 MB at n = 30
        nodes, basis = _lebesgue_case("Z", "ocs", 30)
        tracemalloc.start()
        try:
            lebesgue_constant(nodes, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

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


def _rotated(nodes, alpha):
    """``nodes`` turned by ``alpha`` about the origin, as a plain NodeSet:
    no mirror, so every path takes the whole matrix and the whole grid."""
    c, s = math.cos(alpha), math.sin(alpha)
    x, y = nodes.nodes.T
    turned = np.column_stack([c * x - s * y, s * x + c * y])
    return NodeSet(nodes.order, nodes.scheme, turned)


class TestRotation:
    """A rotation of the disk turns each Zernike pair (n, +-m) by an
    orthogonal 2 x 2 block, so the collocation matrix of a rotated set is
    an orthogonal matrix times the original's.  Comparing a Bos array,
    which takes the mirror paths, with its rotation, which has no mirror,
    checks those paths against the plain ones by a relation they do not
    share.  Both tolerances are kappa N eps relative, kappa of the set's
    matrix, the size of a rounding change of the entries."""

    @pytest.mark.parametrize("scheme", ["ocs", "cuyt", "carnicer"])
    def test_kappa_invariant(self, scheme):
        # from n = 11 on the original takes the mirror split.  Measured: at
        # most 0.10 of the tolerance; the largest difference 6.8e-14
        # relative (cuyt, n = 30)
        for n in (3, 11, 20, 30):
            nodes = generate_nodes(scheme, n)
            basis = DiskZernikeBasis(n)
            want = condition_number(assemble(basis, nodes))
            assert (want.off_block is not None) == (n >= 11)
            tol = want.kappa2 * basis.size * np.finfo(float).eps
            for alpha in (0.3, 2.0 * math.pi * 37 / 512):
                got = condition_number(assemble(basis, _rotated(nodes, alpha)))
                assert got.off_block is None
                assert got.kappa2 == pytest.approx(want.kappa2, rel=tol, abs=0.0)

    @pytest.mark.parametrize("scheme", ["ocs", "cuyt", "carnicer"])
    def test_grid_lebesgue_invariant(self, scheme):
        # a turn by 2 pi k / n_t maps the grid onto itself, so Lambda is the
        # maximum over the same values; the original evaluates half the
        # angles, its rotation all of them.  Measured: at most 0.072 of the
        # tolerance; the largest difference 1.1e-14 relative (ocs, n = 20)
        n_t = 512
        for n in (3, 8, 14, 20):
            nodes = generate_nodes(scheme, n)
            basis = DiskZernikeBasis(n)
            matrix = assemble(basis, nodes)
            report = condition_number(matrix)
            assert collocation._mirror_holds(matrix, report)
            want = lebesgue_constant(nodes, basis, (200, n_t))
            got = lebesgue_constant(
                _rotated(nodes, 2.0 * math.pi * 37 / n_t), basis, (200, n_t)
            )
            tol = report.kappa2 * basis.size * np.finfo(float).eps
            assert got == pytest.approx(want, rel=tol, abs=0.0)


class TestLebesgueHalfGrid:
    """A Bos array whose mirror holds is evaluated on the angles l = 0 ..
    n_t // 2 only; its Lebesgue constant is that of the same nodes without
    a mirror, which get the whole grid."""

    @pytest.fixture
    def verdicts(self, monkeypatch):
        seen = []

        def spy(matrix, report):
            seen.append(holds(matrix, report))
            return seen[-1]

        holds = collocation._mirror_holds
        monkeypatch.setattr(collocation, "_mirror_holds", spy)
        return seen

    @pytest.mark.parametrize("family", list("ZKHEOC"))
    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt"])
    def test_half_grid_matches_whole_grid(self, verdicts, family, scheme):
        domain_map = _LEBESGUE_MAPS[family]
        for n in range(1, 13):
            nodes = generate_nodes(scheme, n)
            if domain_map is not None:
                nodes = transfer_nodes(
                    domain_map, nodes, inner_eps=0.01 if family == "O" else None
                )
            whole = dataclasses.replace(nodes, mirror=None)
            basis = make_basis(family, n, domain_map)
            for grid_shape in [(200, 512), (45, 255)]:
                got = lebesgue_constant(nodes, basis, grid_shape)
                want = lebesgue_constant(whole, basis, grid_shape)
                assert verdicts[-2:] == [True, False], (n, grid_shape)
                assert got == pytest.approx(want, rel=1e-12)
                assert f"{got:.6e}" == f"{want:.6e}"

    def test_perturbed_pair_takes_whole_grid(self, verdicts):
        nodes = ocs_nodes(4)
        points = np.array(nodes.nodes)
        points[nodes.mirror[1]] += [0.0, 1e-6]  # node 1's mirror leaves y = -y_1
        moved = dataclasses.replace(nodes, nodes=points, polar=None)
        basis = DiskZernikeBasis(4)
        got = lebesgue_constant(moved, basis)
        want = lebesgue_constant(dataclasses.replace(moved, mirror=None), basis)
        assert verdicts == [False, False]
        assert got == want
