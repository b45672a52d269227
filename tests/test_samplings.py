from functools import partial

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    bos_layout,
    bos_rings,
    brute_force_thinning,
    qr_fekete_points,
    reference_legendre_derivative_zeros,
)
from reference_tables import (
    CARNICER_RADII_10,
    CARNICER_RADII_15,
    OCS_RADII_10,
    OCS_RADII_15,
)
from zernkit import samplings
from zernkit.collocation import assemble, condition_number
from zernkit.domains import DiskZernikeBasis
from zernkit.errors import (
    ConvergenceError,
    NodeContainmentError,
    NodeCountError,
    NodeParseError,
    RankDeficiencyError,
)
from zernkit.samplings import (
    NodeSet,
    Scheme,
    approximate_fekete,
    bos_array,
    carnicer_radii,
    cuyt_radii,
    farthest_point_thinning,
    generate_nodes,
    legendre_derivative_zeros,
    load_nodes,
    ocs_nodes,
    ocs_radii,
    random_thinned_nodes,
    ring_counts,
    save_nodes,
    spiral_nodes,
)
from zernkit.wavefront import run_experiment
from zernkit.zernike import basis_size, zernike_matrix


class TestBosArrays:
    def test_ring_counts_n10(self):
        counts = ring_counts(10)
        assert counts == (21, 17, 13, 9, 5, 1)
        assert sum(counts) == 66

    def test_minimal_order(self):
        nodes = bos_array(1, (0.5,))
        assert len(nodes) == 3

    def test_duplicate_radii_rejected(self):
        with pytest.raises(ValueError):
            bos_array(10, (0.9, 0.9, 0.5, 0.4, 0.2, 0.0))

    def test_wrong_number_of_radii_rejected(self):
        # order 2 has two rings
        for radii in ((1.0,), (1.0, 0.5, 0.2)):
            with pytest.raises(ValueError, match="needs 2 ring radii"):
                bos_array(2, radii)

    def test_multi_point_origin_ring_rejected(self):
        # ring_counts(3) is (7, 3): the inner ring has three points
        with pytest.raises(ValueError, match="single-point ring"):
            bos_array(3, (1.0, 0.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            bos_array(2, (1.0, -0.5))

    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # only the one-point inner ring of an even order may sit at 0
                st.lists(
                    st.floats(0.0, 1.0, exclude_min=n % 2 == 1),
                    min_size=n // 2 + 1, max_size=n // 2 + 1, unique=True,
                ),
            )
        )
    )
    def test_equals_point_by_point_layout(self, n_and_radii):
        n, radii = n_and_radii
        radii = sorted(radii, reverse=True)
        nodes = bos_array(n, radii)
        assert nodes.scheme == Scheme.BOS_CUSTOM
        assert np.array_equal(nodes.nodes, bos_layout(n, radii))

    @pytest.mark.parametrize(
        "radii", [ocs_radii, carnicer_radii, cuyt_radii], ids=["ocs", "carnicer", "cuyt"]
    )
    def test_one_pass_equals_ring_by_ring_bytes(self, radii):
        # the vectorised build keeps every ring's arithmetic: coordinates,
        # the polar columns derived from them and the mirror, byte for byte
        for n in range(1, 41):
            nodes = bos_array(n, radii(n))
            points, mirror = bos_rings(n, radii(n))
            want = NodeSet(n, Scheme.BOS_CUSTOM, points)
            assert nodes.nodes.tobytes() == want.nodes.tobytes(), (radii, n)
            assert nodes.polar.tobytes() == want.polar.tobytes(), (radii, n)
            assert nodes.mirror.dtype == mirror.dtype
            assert nodes.mirror.tobytes() == mirror.tobytes(), (radii, n)

    def test_outermost_first(self):
        nodes = ocs_nodes(6)
        r = nodes.rho
        assert r[0] > r[-1]
        assert r[0] == pytest.approx(max(r))


class TestRadii:
    def test_ocs_table_rows(self):
        assert np.allclose(ocs_radii(10), OCS_RADII_10, atol=5e-5)
        assert np.allclose(ocs_radii(15), OCS_RADII_15, atol=5e-5)

    def test_ocs_n1_hand_value(self):
        # cubic at xi = cos(pi/4)
        xi = np.cos(np.pi / 4)
        want = 1.1565 * xi - 0.76535 * xi**2 + 0.60517 * xi**3
        assert ocs_radii(1)[0] == pytest.approx(want)
        assert ocs_radii(1)[0] == pytest.approx(0.6491, abs=5e-5)

    def test_ocs_innermost_exact_zero_even_order(self):
        assert ocs_radii(10)[-1] == 0.0
        assert ocs_radii(9)[-1] > 0.0

    def test_carnicer_table_rows(self):
        assert np.allclose(carnicer_radii(10), CARNICER_RADII_10, atol=5e-5)
        assert np.allclose(carnicer_radii(15), CARNICER_RADII_15, atol=5e-5)

    def test_carnicer_outer_ring_on_circle(self):
        for n in (1, 4, 9, 16):
            assert carnicer_radii(n)[0] == 1.0

    def test_cuyt_count_and_monotone(self):
        for n in (1, 2, 3, 10, 15, 30):
            r = cuyt_radii(n)
            assert len(r) == n // 2 + 1
            assert np.all(np.diff(r) < 0) or len(r) == 1

    def test_cuyt_low_orders(self):
        # degree 1 and 2 collapse onto {1} and {1, 0}; the binding check of
        # the Legendre-extrema reading is the condition-number column in
        # the acceptance suite
        assert np.allclose(cuyt_radii(1), [1.0])
        assert np.allclose(cuyt_radii(2), [1.0, 0.0])

    def test_cuyt_radii_are_legendre_extrema(self):
        # inner radii must vanish the Legendre derivative: P_{n}'(r) = 0
        n = 11
        r = cuyt_radii(n)[1:]
        eps = 1e-7
        p_hi = np.polynomial.legendre.Legendre.basis(n)(r + eps)
        p_lo = np.polynomial.legendre.Legendre.basis(n)(r - eps)
        assert np.max(np.abs((p_hi - p_lo) / (2 * eps))) < 1e-5


class TestLegendreZeros:
    """Zeros of P_d', the Legendre extrema behind the Cuyt radii."""

    def test_degree_one(self):
        assert legendre_derivative_zeros(1).size == 0  # P_1' = 1

    def test_degree_two_analytic(self):
        assert np.array_equal(legendre_derivative_zeros(2), [0.0])  # P_2' = 3x

    def test_degree_eleven_symmetry(self):
        z = legendre_derivative_zeros(11)
        assert len(z) == 10
        assert not np.any(z == 0.0)
        assert np.allclose(z, -z[::-1], atol=0)

    @pytest.mark.parametrize("degree", [3, 7, 11, 16, 31])
    def test_against_companion_matrix(self, degree):
        assert np.allclose(
            legendre_derivative_zeros(degree),
            reference_legendre_derivative_zeros(degree),
            atol=1e-13,
        )

    def test_residual_below_tolerance(self):
        from numpy.polynomial.legendre import Legendre

        z = legendre_derivative_zeros(11)
        assert np.max(np.abs(Legendre.basis(11).deriv()(z))) < 1e-12

    def test_iteration_budget_enforced(self):
        with pytest.raises(ConvergenceError):
            legendre_derivative_zeros(20, max_iter=1)


class TestSpiral:
    def test_inside_closed_disk(self):
        nodes = spiral_nodes(12)
        assert np.all(nodes.rho <= 1.0)

    def test_minimal_order_distinct(self):
        nodes = spiral_nodes(1)
        assert len(nodes) == 3
        d = np.hypot(*(nodes.nodes[:, None, :] - nodes.nodes[None, :, :]).T)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.1

    def test_much_worse_conditioned_than_ocs(self):
        n = 15
        k_spiral = condition_number(
            assemble(DiskZernikeBasis(n), spiral_nodes(n))
        ).kappa2
        k_ocs = condition_number(
            assemble(DiskZernikeBasis(n), ocs_nodes(n))
        ).kappa2
        assert np.isfinite(k_spiral)
        assert k_spiral > 100 * k_ocs


class TestRandomThinned:
    def test_deterministic(self):
        a = random_thinned_nodes(6, seed=11)
        b = random_thinned_nodes(6, seed=11)
        assert np.array_equal(a.nodes, b.nodes)

    def test_matches_greedy_replay(self):
        rng = np.random.default_rng(2)
        pool = rng.uniform(-0.8, 0.8, size=(60, 2))
        got = farthest_point_thinning(pool, 12)
        want = brute_force_thinning(pool, 12)
        assert np.array_equal(got, want)

    def test_full_rank_collocation(self):
        nodes = random_thinned_nodes(6, seed=0)
        assert len(nodes) == 28
        report = condition_number(assemble(DiskZernikeBasis(6), nodes))
        assert np.isfinite(report.kappa2)

    def test_order_too_large_for_pool(self):
        with pytest.raises(NodeCountError):
            random_thinned_nodes(50, seed=0)  # 1326 > 1000


class TestNodeFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "nodes.txt"
        nodes = ocs_nodes(10)
        save_nodes(path, nodes)
        loaded = load_nodes(path, 10)
        assert loaded.scheme is Scheme.FILE_LOADED
        assert np.allclose(loaded.nodes, nodes.nodes, atol=0)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "n0.txt"
        path.write_text("# a comment\n\n0.0 0.0  # trailing\n")
        loaded = load_nodes(path, 0)
        assert len(loaded) == 1

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "short.txt"
        save_nodes(path, ocs_nodes(10))
        with pytest.raises(NodeCountError):
            load_nodes(path, 11)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1 zero\n")
        with pytest.raises(NodeParseError):
            load_nodes(path, 0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_coordinate_names_its_line(self, tmp_path, value):
        # nan would pass the containment test, since nan > 1 is False
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n1 0\n0 {value}\n0.5 0.5\n")
        with pytest.raises(NodeParseError, match=r"bad\.txt:3: non-finite"):
            load_nodes(path, 1)

    def test_three_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1 0.2 0.3\n")
        with pytest.raises(NodeParseError):
            load_nodes(path, 0)

    def test_outside_disk(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("1.001 0.0\n")
        with pytest.raises(NodeContainmentError):
            load_nodes(path, 0)


class TestApproximateFekete:
    def test_nonsingular_up_to_15(self):
        for n in (1, 8, 15):
            nodes = approximate_fekete(n, mesh_density=10 * basis_size(n))
            report = condition_number(assemble(DiskZernikeBasis(n), nodes))
            assert report.sigma_min > 0

    def test_order_one_not_degenerate(self):
        nodes = approximate_fekete(1, mesh_density=50)
        mat = assemble(DiskZernikeBasis(1), nodes).entries
        assert abs(np.linalg.det(mat)) > 1e-3

    def test_density_stability(self):
        k = [
            condition_number(
                assemble(DiskZernikeBasis(8), approximate_fekete(8, d))
            ).kappa2
            for d in (450, 2000)
        ]
        assert k[1] < 2.0 * k[0]

    def test_labelled_with_its_own_scheme(self):
        nodes = approximate_fekete(3, mesh_density=100)
        assert nodes.scheme is Scheme.APPROX_FEKETE
        assert str(nodes.scheme) == "approx-fekete"

    def test_density_precondition(self):
        with pytest.raises(ValueError):
            approximate_fekete(8, mesh_density=100)

    @pytest.mark.parametrize("per_node", [30, 100])  # 30 is generate_nodes' density
    @pytest.mark.parametrize("n", range(1, 13))
    def test_keeps_the_points_of_scipys_pivoted_qr(self, n, per_node):
        density = per_node * basis_size(n)
        got = approximate_fekete(n, density).nodes
        assert np.array_equal(got, qr_fekete_points(n, density))

    def test_rank_deficient_mesh_raises(self, monkeypatch):
        def without_last_mode(order, rho, theta):
            vand = zernike_matrix(order, rho, theta)
            vand[-1] = vand[0]
            return vand

        monkeypatch.setattr(samplings, "zernike_matrix", without_last_mode)
        with pytest.raises(RankDeficiencyError):
            approximate_fekete(3, mesh_density=100)


class TestNodeSetInvariants:
    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt", "spiral", "random"])
    @pytest.mark.parametrize("n", [1, 7, 12])
    def test_count_and_containment(self, scheme, n):
        nodes = generate_nodes(scheme, n, seed=1)
        assert len(nodes) == basis_size(n)
        assert np.all(nodes.x**2 + nodes.y**2 <= 1.0 + 1e-12)

    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt"])
    @pytest.mark.parametrize("n", [2, 9, 17, 30])
    def test_ring_schemes_unisolvent(self, scheme, n):
        report = condition_number(
            assemble(DiskZernikeBasis(n), generate_nodes(scheme, n))
        )
        assert report.sigma_min > 1e-8 * report.sigma_max

    @pytest.mark.parametrize(
        "mirror",
        [
            [0, 2],
            [0, 2, 1, 3],
            [0, 0, 2],
            [1, 2, 0],
            [0.0, 2.0, 1.0],
            [0, -1, 1],
            [0, 3, 1],
            [[0, 2, 1]],
        ],
        ids=[
            "short",
            "long",
            "not a permutation",
            "not an involution",
            "float",
            "negative",
            "out of range",
            "two-dimensional",
        ],
    )
    def test_bad_mirror_refused(self, mirror):
        points = bos_array(1, (1.0,)).nodes
        with pytest.raises(ValueError, match="mirror"):
            NodeSet(1, Scheme.BOS_CUSTOM, points, mirror=mirror)

    def test_generators_reproducible(self):
        for scheme in ["ocs", "carnicer", "cuyt", "spiral", "random"]:
            a = generate_nodes(scheme, 8, seed=3)
            b = generate_nodes(scheme, 8, seed=3)
            assert np.array_equal(a.nodes, b.nodes)

    @pytest.mark.parametrize("scheme", samplings.GENERATORS)
    def test_every_scheme_refuses_order_zero(self, scheme):
        public = {
            Scheme.OCS: samplings.ocs_nodes,
            Scheme.CARNICER: samplings.carnicer_nodes,
            Scheme.CUYT: samplings.cuyt_nodes,
            Scheme.SPIRAL: samplings.spiral_nodes,
            Scheme.RANDOM_THINNED: lambda n: random_thinned_nodes(n, seed=0),
            Scheme.APPROX_FEKETE: lambda n: approximate_fekete(n, 1000),
        }
        for make in (partial(generate_nodes, scheme), public[scheme]):
            with pytest.raises(ValueError, match=r"^order must be >= 1$"):
                make(0)

    def test_order_zero_cells_are_errors_for_every_scheme(self):
        schemes = [str(scheme) for scheme in samplings.GENERATORS]
        assert len(schemes) == 6
        cells = run_experiment([0], 1, schemes=schemes, bases=("K",))
        assert [cell.scheme for cell in cells] == schemes
        assert [cell.error for cell in cells] == ["ValueError"] * 6

    def test_nodes_read_only(self):
        nodes = ocs_nodes(3)
        with pytest.raises(ValueError):
            nodes.nodes[0, 0] = 5.0

    def test_wrong_length_rejected(self):
        with pytest.raises(NodeCountError):
            NodeSet(2, Scheme.BOS_CUSTOM, np.zeros((5, 2)))
