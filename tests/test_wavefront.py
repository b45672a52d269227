import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_translations, wavefront_sum, zernike_row, zonal_rrmse
from zernkit import collocation, domains, wavefront
from zernkit.collocation import assemble
from zernkit.domains import (
    HexagonBasis,
    HexagonMap,
    polygon_boundary_radius,
    transfer_nodes,
)
from zernkit.errors import NodeParseError, ZeroDenominatorError
from zernkit.samplings import GENERATORS, NodeSet, Scheme, generate_nodes, ocs_nodes
from zernkit.zernike import basis_size, cartesian_to_polar, zernike_matrix
from zernkit.wavefront import (
    ExperimentCell,
    _family_matrix,
    _grid_radius,
    _grid_table,
    _local_modes,
    _local_system,
    _on_grid,
    _rrmse,
    _solve_families,
    _translations,
    _trial_seed,
    build_aperture,
    experiment_csv,
    hexagon_grid,
    kolmogorov_covariance,
    kolmogorov_wavefront,
    run_experiment,
    wavefront_modes,
)


@pytest.fixture(scope="module")
def aperture():
    return build_aperture()


class TestKolmogorov:
    def test_deterministic(self):
        a = kolmogorov_wavefront(7)
        b = kolmogorov_wavefront(7)
        assert np.array_equal(a, b)

    def test_piston_always_zero(self):
        for seed in range(20):
            assert kolmogorov_wavefront(seed)[0] == 0.0

    def test_covariance_structure(self):
        cov = kolmogorov_covariance()
        assert cov.shape == (13, 13)
        assert np.allclose(cov, cov.T, atol=0)
        # same-|m| opposite-parity modes are uncorrelated: (1,-1) vs (1,1)
        assert cov[0, 1] == 0.0
        # tip couples to the same-m third-order mode with negative sign
        assert cov[0, 6] < 0.0
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    def test_monte_carlo_variance_ratio(self):
        # Var(a_2)/Var(a_8) over 10^4 draws against the model's own values
        cov = kolmogorov_covariance()
        draws = np.array(
            [kolmogorov_wavefront(seed)[1:] for seed in range(10_000)]
        )
        var = draws.var(axis=0)
        want = cov[0, 0] / cov[6, 6]
        got = var[0] / var[6]
        assert abs(got - want) < 0.1 * want

    def test_coefficients_are_a_read_only_array(self):
        a = kolmogorov_wavefront(3)
        assert a.shape == (14,) and a.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            a[1] = 0.0


class TestWavefrontEvaluation:
    @given(
        seed=st.integers(0, 10_000),
        radius=st.floats(0.0, 6.5),
    )
    @settings(max_examples=50)
    def test_equals_sum_of_single_modes(self, seed, radius):
        w = kolmogorov_wavefront(seed)
        ang = np.linspace(-np.pi, np.pi, 9)
        x = np.outer(np.linspace(0.0, radius, 5), np.cos(ang))
        y = np.outer(np.linspace(0.0, radius, 5), np.sin(ang))
        want = wavefront_sum(w, x, y)
        scale = np.max(np.abs(want))
        got = np.tensordot(w, wavefront_modes(x, y), axes=1)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


class TestAperture:
    def test_segment_count(self, aperture):
        assert len(aperture) == 36

    def test_centers_are_a_read_only_array(self, aperture):
        assert aperture.shape == (36, 2) and aperture.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            aperture[0, 0] = 0.0

    def test_flat_to_flat_spacing(self, aperture):
        d = np.hypot(*(aperture[:, None, :] - aperture[None, :, :]).T)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= math.sqrt(3.0) * (1.0 - 1e-9)

    def test_vertices_inside_support(self, aperture):
        ang = np.pi / 6 + np.pi / 3 * np.arange(6)
        corner = polygon_boundary_radius(ang)[:, None] * np.column_stack(
            [np.cos(ang), np.sin(ang)]
        )
        verts = (aperture[:, None, :] + corner[None, :, :]).reshape(-1, 2)
        assert np.max(np.hypot(verts[:, 0], verts[:, 1])) <= 6.5

    def test_characteristic_functions_disjoint(self, aperture):
        # segment j holds a point strictly inside its hexagon around center j
        for k in range(36):
            d = aperture[k] - aperture
            inside = np.hypot(d[:, 0], d[:, 1]) < polygon_boundary_radius(
                np.arctan2(d[:, 1], d[:, 0])
            )
            assert list(np.flatnonzero(inside)) == [k]

    def test_grid_size_band(self):
        grid = hexagon_grid()
        assert 2300 <= len(grid) <= 2700


class TestTranslation:
    @pytest.fixture(scope="class")
    def translations(self, aperture):
        return _translations(aperture)

    @given(
        polar=st.lists(
            st.tuples(
                st.floats(0.0, 1.0, exclude_max=True), st.floats(-math.pi, math.pi)
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=30)
    def test_segment_modes_are_translated_local_modes(
        self, aperture, translations, polar
    ):
        # wavefront_modes(c_k + p) == T_k @ Z15(p) at points p inside the
        # unit hexagon, for every segment center c_k
        frac, theta = np.array(polar).T
        r = frac * polygon_boundary_radius(theta)
        p = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        pts = aperture[:, None, :] + p
        want = np.moveaxis(wavefront_modes(pts[..., 0], pts[..., 1]), 0, 1)
        got = translations @ zernike_matrix(4, r, theta)
        assert got.shape == want.shape == (36, 14, len(p))
        worst = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(worst <= 1e-12 * np.max(np.abs(want), axis=(1, 2)))

    def test_equal_to_grid_least_squares(self, aperture, translations):
        want = grid_translations(aperture)
        assert translations.shape == want.shape == (36, 14, 15)
        worst = np.max(np.abs(translations - want), axis=(1, 2))
        assert np.all(worst <= 1e-13 * np.max(np.abs(want), axis=(1, 2)))

    def test_interpolation_points_are_unisolvent(self):
        # the 15 points that fix T_k: the order-4 OCS set, whose matrix of
        # the 15 local modes is well conditioned
        nodes = ocs_nodes(4)
        modes = np.array([zernike_row(j, nodes.rho, nodes.theta) for j in range(15)])
        assert modes.shape == (15, 15)
        assert np.linalg.cond(modes) <= 3.0


def rrmse(approx, truth):
    """``_rrmse`` of grid values given one row per segment."""
    approx, truth = np.atleast_2d(approx), np.atleast_2d(truth)
    return float(
        _rrmse(np.sum((approx - truth) ** 2, axis=-1), np.sum(truth * truth, axis=-1))
    )


def on_segments(wavefront, centers, local):
    """``wavefront`` at the local points ``local`` (P, 2) of every segment,
    (segments, P)."""
    pts = centers[:, None] + local
    return np.tensordot(
        wavefront, wavefront_modes(pts[..., 0], pts[..., 1]), axes=1
    )


def solve_segments(disk_nodes, family, sample):
    """The basis and the coefficients (rows, N) of the interpolants of
    ``sample(local)`` (rows, N), one right-hand side per row, at the local
    hexagon nodes ``local`` (N, 2) of ``disk_nodes``, by run_experiment's
    steps ``_local_system`` and ``_solve_families``."""
    nodes, entries, weights = _local_system(disk_nodes)
    (outcome,), coefficients = _solve_families(
        lambda: (nodes, entries, weights, sample(nodes.nodes)), [family], [family], None
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome, coefficients


def fixed_fronts(monkeypatch, coefficients):
    """Make every trial of run_experiment draw the wavefront ``coefficients``."""
    front = np.array(coefficients, float)
    monkeypatch.setattr(wavefront, "kolmogorov_wavefront", lambda seed: front)


class TestRrmse:
    """The relative root mean square error pooled over segments."""

    def test_exact_match(self):
        v = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert rrmse(v, v) == 0.0

    def test_double_is_unit_error(self):
        v = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert rrmse(2.0 * v, v) == pytest.approx(1.0)

    def test_constant_offset_hand_fixture(self):
        # truth (1, 0, 0) has unit norm; approx adds c=0.5 everywhere:
        # error = sqrt(3 * 0.25 / 1) = sqrt(0.75), also with a segment of
        # zero truth among them
        truth = np.array([1.0, 0.0, 0.0])
        approx = truth + 0.5
        assert rrmse(approx, truth) == pytest.approx(math.sqrt(0.75))
        assert rrmse(approx[:, None], truth[:, None]) == pytest.approx(math.sqrt(0.75))

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            rrmse(np.ones((2, 3)), np.zeros((2, 3)))


class TestZonal:
    """Zonal reconstruction by run_experiment and its steps."""

    def test_zero_wavefront_is_error_cell(self, monkeypatch):
        # the relative error of a wavefront that is zero on the grid is
        # undefined; it marks every cell, after the node set's labels
        fixed_fronts(monkeypatch, np.zeros(14))
        messages = []
        cells = run_experiment([2], 1, bases=["K", "H"], progress=messages.append)
        assert [(c.basis, c.error) for c in cells] == [
            ("K", "ZeroDenominatorError"), ("H", "ZeroDenominatorError"),
        ]
        reason = "ZeroDenominatorError: wavefront is identically zero on the " \
            "evaluation grid"
        assert messages == [
            "n=2 scheme=ocs basis=K",
            "n=2 scheme=ocs basis=H",
            f"n=2 scheme=ocs basis=K: {reason}",
            f"n=2 scheme=ocs basis=H: {reason}",
        ]

    def test_degree_one_wavefront_error_level(self, monkeypatch):
        # affine surfaces are not inside the span of the composed family, so
        # reconstruction is not exact; the measured plateau is held here
        fixed_fronts(monkeypatch, [0.3, 0.5, -0.2] + [0.0] * 11)
        r5, r10 = (c.mean_rrmse for c in run_experiment([5, 10], 1, bases=["K"]))
        assert r5 < 0.02
        assert r10 < r5

    @pytest.mark.parametrize("family", ["K", "H"])
    def test_basis_combination_recovered_exactly(self, aperture, family):
        # sampling a function that is itself a translated-basis combination
        # returns its coefficients up to conditioning error
        basis = HexagonBasis(6, family)
        coeffs = np.random.default_rng(8).standard_normal((36, basis.size))

        def synthetic(local):
            pts = aperture[:, None] + local
            return np.array([
                coeffs[k] @ basis.matrix_xy(*(pts[k] - aperture[k]).T)
                for k in range(36)
            ])

        _, got = solve_segments(ocs_nodes(6), family, synthetic)
        assert np.max(np.abs(got - coeffs)) < 1e-7

    def test_locality(self, aperture):
        # segment k results depend only on segment k samples
        w = kolmogorov_wavefront(5)
        table = _grid_table(4)

        def approximate(offset):
            def sample(local):
                samples = on_segments(w, aperture, local)
                samples[7] += offset
                return samples

            basis, coeffs = solve_segments(ocs_nodes(4), "K", sample)
            (values,) = _on_grid(coeffs, [basis], table[: basis.size])
            return values

        base_approx, approx = approximate(0.0), approximate(0.25)
        others = [k for k in range(36) if k != 7]
        assert np.array_equal(approx[others], base_approx[others])
        assert not np.array_equal(approx[7], base_approx[7])

    def test_translation_equivariance(self, monkeypatch, aperture):
        # shifting the wavefront and the aperture together leaves every
        # segment's local modes, and so the cell, unchanged
        shift = np.array([0.37, -1.21])
        want = run_experiment([5], 2, bases=["H"], master_seed=11)
        unshifted = _translations(aperture)
        monkeypatch.setattr(wavefront, "build_aperture", lambda: aperture + shift)
        monkeypatch.setattr(
            wavefront, "wavefront_modes",
            lambda x, y: wavefront_modes(x - shift[0], y - shift[1]),
        )
        assert np.max(np.abs(_translations(aperture + shift) - unshifted)) < 1e-10
        (cell,) = run_experiment([5], 2, bases=["H"], master_seed=11)
        assert cell.mean_rrmse == pytest.approx(want[0].mean_rrmse, rel=1e-10)

    def test_singular_local_system_is_error_cell(self):
        # duplicated nodes make the shared local matrix exactly singular
        def doubled(scheme, order, seed):
            points = np.array(ocs_nodes(order).nodes)
            points[1] = points[0]
            return NodeSet(order, Scheme.BOS_CUSTOM, points)

        (cell,) = run_experiment([2], 1, bases=["K"], node_provider=doubled)
        assert cell.error == "SingularMatrixError"


class TestGridTable:
    @pytest.mark.parametrize("family", ["K", "H"])
    @pytest.mark.parametrize("order,wider", [(2, 2), (5, 9), (11, 20), (20, 20)])
    def test_slice_is_the_basis_on_the_grid(self, family, order, wider):
        grid = hexagon_grid()
        polar = cartesian_to_polar(grid[:, 0], grid[:, 1])
        table = _grid_table(wider)
        basis = HexagonBasis(order, family)
        rows = table[: basis.size]
        assert np.array_equal(
            rows, HexagonBasis(order, "K").matrix_xy(grid[:, 0], grid[:, 1])
        )

        def weigh(values):
            return HexagonMap().weigh(values, *polar) if family == "H" else values

        want = basis.matrix_xy(grid[:, 0], grid[:, 1])
        assert np.array_equal(weigh(rows.copy()), want)
        # one product for both families; H divides its block, not the
        # table: the same function
        coefficients = np.random.default_rng(order).standard_normal((6, basis.size))
        product = coefficients @ rows
        values = _on_grid(coefficients, [HexagonBasis(order, "K"), basis], rows)
        assert values.shape == (2, 3, len(grid))
        assert np.array_equal(values[0], product[:3])
        assert np.array_equal(values[1], weigh(product[3:]))

    def test_weighing_leaves_the_shared_table_alone(self):
        table = _grid_table(8)
        before = table.copy()
        basis = HexagonBasis(8, "H")
        _on_grid(np.ones((2, basis.size)), [basis], table[: basis.size])
        assert np.array_equal(table, before)
        # R(theta) at the grid is computed once per process, read-only
        assert _grid_radius() is _grid_radius()
        assert not _grid_radius().flags.writeable

    def test_cells_read_one_table_in_place(self, monkeypatch):
        # the table is built once, at the highest order; the families of
        # each node set read its first rows as a view, in one product, and
        # never write them
        tables, reads = [], []

        def built(order):
            tables.append(_grid_table(order))
            tables.append(tables[0].copy())
            return tables[0]

        def on_grid(coefficients, bases, rows):
            reads.append(([b.family for b in bases], rows))
            return _on_grid(coefficients, bases, rows)

        monkeypatch.setattr(wavefront, "_grid_table", built)
        monkeypatch.setattr(wavefront, "_on_grid", on_grid)
        run_experiment([5, 9], 1, bases=["K", "H"])
        table, before = tables
        assert table.shape == (basis_size(9), len(hexagon_grid()))
        assert np.array_equal(table, before)
        assert [len(rows) for _, rows in reads] == [basis_size(5), basis_size(9)]
        for families, rows in reads:
            assert families == ["K", "H"]
            assert rows.base is table
            assert np.array_equal(rows, table[: len(rows)])

    def test_weighted_cell_allocates_no_slice(self, monkeypatch):
        # an H cell at the paper's top order, its table built beforehand,
        # allocates less than one (231, 2515) slice of the table
        table = _grid_table(20)
        monkeypatch.setattr(wavefront, "_grid_table", lambda order: table)
        run_experiment([20], 1, bases=["H"])  # warms every cache
        tracemalloc.start()
        try:
            run_experiment([20], 1, bases=["H"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table[:231].nbytes == 231 * 2515 * 8
        assert peak < table[:231].nbytes


class TestSharedLocalSystem:
    """Every family of one node set is built from one transfer and one
    evaluation of the K family at the moved nodes."""

    @pytest.mark.parametrize("scheme", sorted(GENERATORS))
    def test_families_equal_assemble(self, monkeypatch, scheme):
        orders = range(1, 21)
        disk = {order: generate_nodes(scheme, order) for order in orders}
        weighted = {}  # assemble's H matrix per order
        for order in orders:
            moved = transfer_nodes(HexagonMap(), disk[order])
            nodes, entries, weights = _local_system(disk[order])
            shared = entries.copy()
            for family in ("K", "H"):
                basis = HexagonBasis(order, family)
                want = assemble(basis, moved)
                if basis.weighted:
                    weighted[order] = want
                got = _family_matrix(nodes, entries, basis)
                assert np.array_equal(entries, shared)  # H weighs a copy
                assert got.entries.tobytes() == want.entries.tobytes()
                assert (got.order, got.scheme, got.basis) == (
                    want.order, want.scheme, want.basis
                )
                assert np.array_equal(got.mirror, want.mirror)
            # H's entries are K's times its node weights 1/R(theta_j)
            np.testing.assert_allclose(
                weighted[order].entries, shared * weights,
                rtol=2 * np.finfo(float).eps, atol=0.0,
            )
        # the matrix run_experiment hands to the SVD is assemble's, bit for
        # bit: H's, the first family, at every node set
        seen = []
        condition_number = collocation.condition_number

        def recorded(matrix):
            seen.append(matrix)
            return condition_number(matrix)

        monkeypatch.setattr(collocation, "condition_number", recorded)
        run_experiment(
            orders, 1, schemes=[scheme], bases=["H", "K"],
            node_provider=lambda s, order, seed: disk[order],
        )
        monkeypatch.undo()
        assert [(m.order, m.basis) for m in seen] == [(n, "H") for n in orders]
        for matrix in seen:
            want = weighted[matrix.order]
            assert matrix.entries.tobytes() == want.entries.tobytes()

    def test_one_transfer_and_evaluation_per_node_set(self, monkeypatch):
        orders, schemes, bases = [16, 17], ["ocs", "spiral"], ["K", "H"]
        transfers = []
        collocation = []  # points of each K evaluation off the grid table
        local_modes = []  # points of each 15-mode evaluation at the nodes

        def counting_transfer(domain_map, nodeset, *args):
            transfers.append((nodeset.order, str(nodeset.scheme)))
            return transfer_nodes(domain_map, nodeset, *args)

        def counting(kernel, calls):
            def counted(order, rho, theta):
                if np.size(rho) != len(hexagon_grid()):
                    calls.append(np.size(rho))
                return kernel(order, rho, theta)
            return counted

        monkeypatch.setattr(wavefront, "transfer_nodes", counting_transfer)
        monkeypatch.setattr(
            domains, "zernike_matrix", counting(zernike_matrix, collocation)
        )
        monkeypatch.setattr(
            wavefront, "zernike_matrix", counting(zernike_matrix, local_modes)
        )
        cells = run_experiment(orders, 1, schemes=schemes, bases=bases)
        monkeypatch.undo()
        sizes = [basis_size(order) for order in orders for _ in schemes]
        assert transfers == [(order, s) for order in orders for s in schemes]
        assert collocation == sizes
        # the segment translations come first: 15 points, then their
        # shifts onto the 36 segments
        assert local_modes == [15, 36 * 15] + sizes

        # each cell equals the one run alone, its table built at its order
        alone = [
            cell
            for order in orders
            for scheme in schemes
            for basis in bases
            for cell in run_experiment([order], 1, schemes=[scheme], bases=[basis])
        ]
        assert cells == alone

    @pytest.mark.parametrize("bases", [("H", "K"), ("H",), ("K",)])
    def test_stacked_families_leave_each_other_alone(self, bases):
        # one solve and one grid product serve every family of a node set;
        # each family's cell is the same alone, first or second
        both = run_experiment([5, 9], 2, schemes=["ocs", "spiral"], bases=["K", "H"])
        cells = run_experiment([5, 9], 2, schemes=["ocs", "spiral"], bases=bases)
        key = {(c.order, c.scheme, c.basis): c for c in both}
        assert cells == [key[c.order, c.scheme, c.basis] for c in cells]
        assert len(cells) == 4 * len(bases)

    @staticmethod
    def _counted_svds(monkeypatch, disk_nodes, bases):
        # the cells of one node set and how many condition_number calls
        # (one per SVD verdict) they made
        calls = []
        condition_number = collocation.condition_number

        def counted(matrix):
            calls.append(matrix.basis)
            return condition_number(matrix)

        monkeypatch.setattr(collocation, "condition_number", counted)
        cells = run_experiment(
            [disk_nodes.order], 2, bases=bases,
            node_provider=lambda scheme, order, seed: disk_nodes,
        )
        monkeypatch.undo()
        return cells, calls

    @pytest.mark.parametrize("bases", [("K", "H"), ("H", "K"), ("H",)])
    @pytest.mark.parametrize("order", [6, 12])
    def test_one_svd_per_well_conditioned_node_set(self, monkeypatch, bases, order):
        # the first family's SVD (split by the mirror from order 11 on)
        # certifies the other by the diagonal scaling bound; each cell
        # still equals the one run alone, which takes its own SVD
        disk_nodes = generate_nodes("ocs", order)
        cells, calls = self._counted_svds(monkeypatch, disk_nodes, bases)
        assert calls == [bases[0]]
        assert cells == [run_experiment([order], 2, bases=[b])[0] for b in bases]

    def test_inconclusive_bound_runs_the_rule_on_its_own_matrix(self, monkeypatch):
        # node 1 within 1e-13 of node 0: K passes the rule, but too close
        # to it for the bound to speak for H, which then takes its own SVD
        points = np.array(ocs_nodes(2).nodes)
        points[1] = points[0] + [1e-13, 0.0]
        disk_nodes = NodeSet(2, Scheme.BOS_CUSTOM, points)
        cells, calls = self._counted_svds(monkeypatch, disk_nodes, ("K", "H"))
        assert calls == ["K", "H"]
        assert [c.error for c in cells] == [None, None]

    @staticmethod
    def _counted_solves(monkeypatch, node_provider, order, bases):
        # the cells of one node set and the right-hand side shape of each
        # np.linalg.solve call they made
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(np.shape(b))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        cells = run_experiment(
            [order], 2, bases=bases, node_provider=node_provider,
        )
        monkeypatch.undo()
        return cells, calls

    @pytest.mark.parametrize("bases", [("K", "H"), ("H", "K"), ("H",)])
    @pytest.mark.parametrize("order", [6, 12])
    def test_one_lu_per_node_set(self, monkeypatch, bases, order):
        # every passing family's 15 right-hand sides go to one solve with
        # the K entries
        disk_nodes = generate_nodes("ocs", order)
        cells, calls = self._counted_solves(
            monkeypatch, lambda scheme, n, seed: disk_nodes, order, bases
        )
        assert calls == [(basis_size(order), 15 * len(bases))]
        assert [c.error for c in cells] == [None] * len(bases)

    def test_singular_node_set_solves_nothing(self, monkeypatch):
        def doubled(scheme, order, seed):
            points = np.array(ocs_nodes(order).nodes)
            points[1] = points[0]
            return NodeSet(order, Scheme.BOS_CUSTOM, points)

        cells, calls = self._counted_solves(monkeypatch, doubled, 4, ("K", "H"))
        assert calls == []
        assert [c.error for c in cells] == ["SingularMatrixError"] * 2

    @pytest.mark.parametrize("scheme", ["ocs", "carnicer", "cuyt", "spiral", "random"])
    def test_weighted_coefficients_equal_their_own_solve(self, scheme):
        # H's coefficients from the K system, its right-hand sides divided
        # by its node weights, agree with a solve of assemble's H matrix to
        # kappa N eps relative
        eps = np.finfo(float).eps
        for order in range(2, 21):
            disk_nodes = generate_nodes(scheme, order)
            moved = transfer_nodes(HexagonMap(), disk_nodes)
            matrix = assemble(HexagonBasis(order, "H"), moved)
            _, got = solve_segments(disk_nodes, "H", _local_modes)
            want = np.linalg.solve(matrix.entries.T, _local_modes(moved.nodes).T).T
            kappa = collocation.condition_number(matrix).kappa2
            assert np.linalg.norm(got - want) <= (
                kappa * matrix.size * eps * np.linalg.norm(want)
            ), (scheme, order)


class TestExperiment:
    def test_cells_equal_one_order_runs(self):
        # the table is built at the highest order, which is neither the
        # first nor the last one requested
        orders = (18, 16, 17)
        together = run_experiment(orders, 2, bases=["K", "H"], master_seed=4)
        alone = [
            cell
            for order in orders
            for cell in run_experiment([order], 2, bases=["K", "H"], master_seed=4)
        ]
        assert together == alone

    def test_no_orders_no_cells(self):
        assert run_experiment((), 1) == []

    @pytest.mark.parametrize("scale", [0.37, 2.5, 1000.0])
    def test_error_does_not_depend_on_the_wavefront_scale(self, monkeypatch, scale):
        # a turbulence strength would scale every coefficient alike; the
        # relative error cancels it, so the experiment takes none
        def cells():
            return run_experiment([5, 12], 3, schemes=["ocs", "random"],
                                  bases=["K", "H"])

        plain = cells()
        draw = wavefront.kolmogorov_wavefront
        monkeypatch.setattr(wavefront, "kolmogorov_wavefront",
                            lambda seed: scale * draw(seed))
        scaled = cells()
        assert all(c.error is None for c in plain + scaled)
        for a, b in zip(scaled, plain):
            assert a.mean_rrmse == pytest.approx(b.mean_rrmse, rel=1e-12, abs=0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="orders must be >= 0"):
            run_experiment([3, -1], 1)

    def test_deterministic_single_trial(self, aperture):
        a = run_experiment([3], 1, schemes=["ocs"], bases=["K"], master_seed=5)
        b = run_experiment([3], 1, schemes=["ocs"], bases=["K"], master_seed=5)
        assert a == b
        assert experiment_csv(a) == experiment_csv(b)

    def test_error_cells_marked_not_raised(self, aperture):
        cells = run_experiment(
            [3], 1, schemes=["lebesgue"], bases=["K"], master_seed=5
        )  # scheme needs a file and none is supplied
        assert len(cells) == 1
        assert cells[0].error is not None
        assert "error" in cells[0].csv_row()

    def test_programming_error_in_provider_raises(self):
        def broken(scheme, order, seed):
            raise TypeError("provider takes no order")

        with pytest.raises(TypeError, match="provider takes no order"):
            run_experiment([2], 1, node_provider=broken)

    @pytest.mark.parametrize("scheme,order", [("bogus", 2), ("ocs", 0)])
    def test_unresolvable_scheme_is_error_cell(self, scheme, order):
        (cell,) = run_experiment([order], 1, schemes=[scheme])
        assert cell.error == "ValueError"

    def test_value_error_in_cell_numerics_raises(self, monkeypatch):
        from zernkit import wavefront

        original = wavefront._local_squares
        calls = []

        def broken(local, root):
            calls.append(root.shape)
            if len(calls) > 1:  # the first call forms the truth, before any cell
                raise ValueError("operands could not be broadcast together")
            return original(local, root)

        monkeypatch.setattr(wavefront, "_local_squares", broken)
        with pytest.raises(ValueError, match="could not be broadcast"):
            run_experiment([2], 1)
        assert len(calls) == 2

    def test_unreadable_nodes_are_error_cell_with_reason(self):
        def unreadable(scheme, order, seed):
            raise NodeParseError("line 3: expected two numbers")

        messages = []
        cells = run_experiment(
            [2], 1, node_provider=unreadable, progress=messages.append
        )
        assert cells[0].error == "NodeParseError"
        assert messages == [
            "n=2 scheme=ocs basis=K",
            "n=2 scheme=ocs basis=K: NodeParseError: line 3: expected two numbers",
        ]

    def test_node_set_resolved_once_per_order_and_scheme(self):
        calls = []

        def counting(scheme, order, seed):
            calls.append((scheme, order))
            return generate_nodes(scheme, order, seed)

        shared = run_experiment(
            [2, 3], 1, schemes=["ocs", "spiral"], bases=["K", "H"],
            node_provider=counting,
        )
        assert calls == [("ocs", 2), ("spiral", 2), ("ocs", 3), ("spiral", 3)]
        assert experiment_csv(shared) == experiment_csv(
            run_experiment([2, 3], 1, schemes=["ocs", "spiral"], bases=["K", "H"])
        )

    def test_failed_provider_marks_every_basis(self):
        calls = []

        def unreadable(scheme, order, seed):
            calls.append((scheme, order))
            raise NodeParseError("line 3: expected two numbers")

        messages = []
        cells = run_experiment(
            [2], 1, bases=["K", "H"], node_provider=unreadable,
            progress=messages.append,
        )
        assert calls == [("ocs", 2)]
        assert [(c.basis, c.error) for c in cells] == [
            ("K", "NodeParseError"), ("H", "NodeParseError"),
        ]
        assert messages == [
            "n=2 scheme=ocs basis=K",
            "n=2 scheme=ocs basis=K: NodeParseError: line 3: expected two numbers",
            "n=2 scheme=ocs basis=H",
            "n=2 scheme=ocs basis=H: NodeParseError: line 3: expected two numbers",
        ]

    def test_singular_set_marks_every_basis(self):
        # K fails the rule, so no report certifies H: H runs the rule on its
        # own matrix, and each reason follows its own label
        def doubled(scheme, order, seed):
            points = np.array(ocs_nodes(order).nodes)
            points[1] = points[0]
            return NodeSet(order, Scheme.BOS_CUSTOM, points)

        messages = []
        cells = run_experiment(
            [3], 1, bases=["K", "H"], node_provider=doubled,
            progress=messages.append,
        )
        assert [(c.basis, c.error) for c in cells] == [
            ("K", "SingularMatrixError"), ("H", "SingularMatrixError"),
        ]
        singular = "SingularMatrixError: collocation matrix (bos, {}, n=3) is " \
            "singular to working precision"
        assert messages == [
            "n=3 scheme=ocs basis=K",
            "n=3 scheme=ocs basis=K: " + singular.format("K"),
            "n=3 scheme=ocs basis=H",
            "n=3 scheme=ocs basis=H: " + singular.format("H"),
        ]

    @pytest.mark.parametrize("broken,reason", [
        (2, "NonFiniteError: collocation matrix has non-finite entries"),
        (None, "DomainError: can only transfer disk node sets, got hexagon"),
    ])
    def test_failed_shared_step_marks_every_basis(self, monkeypatch, broken, reason):
        # a node with NaN coordinates fails the K entries; a set that is
        # already on the hexagon fails the transfer
        def provider(scheme, order, seed):
            points = np.array(ocs_nodes(order).nodes)
            if broken is None:
                return NodeSet(order, Scheme.OCS, points, domain="hexagon")
            points[broken] = np.nan
            return NodeSet(order, Scheme.BOS_CUSTOM, points)

        transfers = []

        def counting_transfer(domain_map, nodeset, *args):
            transfers.append(nodeset.order)
            return transfer_nodes(domain_map, nodeset, *args)

        monkeypatch.setattr(wavefront, "transfer_nodes", counting_transfer)
        messages = []
        cells = run_experiment(
            [3], 1, bases=["K", "H"], node_provider=provider,
            progress=messages.append,
        )
        assert transfers == [3]
        error = reason.split(":")[0]
        assert [(c.basis, c.error) for c in cells] == [("K", error), ("H", error)]
        assert messages == [
            "n=3 scheme=ocs basis=K",
            f"n=3 scheme=ocs basis=K: {reason}",
            "n=3 scheme=ocs basis=H",
            f"n=3 scheme=ocs basis=H: {reason}",
        ]

    @given(
        basis=st.sampled_from(["K", "H"]),
        order=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=3)
    def test_closed_form_cells_equal_single_reconstructions(self, basis, order, seed):
        # trial t's wavefront does not depend on the count, so one list of
        # pointwise reconstructions on the grid serves every count
        counts = [1, 2, 33]
        fronts = [
            kolmogorov_wavefront(_trial_seed(seed, t))
            for t in range(max(counts))
        ]
        single = zonal_rrmse(
            fronts, build_aperture(), generate_nodes("ocs", order), basis
        )
        for trials in counts:
            (cell,) = run_experiment([order], trials, bases=[basis], master_seed=seed)
            assert cell.mean_rrmse == pytest.approx(
                np.mean(single[:trials]), rel=1e-12, abs=0.0
            )

    def test_paper_order_weighted_cell_equals_single_reconstructions(self):
        # the top order of the paper's sweep, with the weighted family the
        # benchmark runs; the property test above draws orders 1..5
        fronts = [kolmogorov_wavefront(_trial_seed(0, t)) for t in range(3)]
        single = zonal_rrmse(fronts, build_aperture(), generate_nodes("ocs", 20), "H")
        (cell,) = run_experiment([20], 3, bases=["H"])
        assert cell.mean_rrmse == pytest.approx(np.mean(single), rel=1e-12, abs=0.0)

    def test_approx_fekete_cell_with_default_nodes(self):
        cells = run_experiment([2], 1, schemes=["approx-fekete"], bases=["K"])
        assert cells[0].error is None
        assert math.isfinite(cells[0].mean_rrmse)

    def test_error_decreases_with_order(self):
        cells = run_experiment(
            range(5, 16, 5), 3, schemes=["ocs"], bases=["K"], master_seed=2
        )
        values = [c.mean_rrmse for c in cells]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo < hi * 1.10  # allow small Monte-Carlo upticks

    def test_unstable_schemes_much_worse(self):
        cells = run_experiment(
            [12], 10, schemes=["ocs", "random", "spiral"], bases=["H"], master_seed=3
        )
        by_scheme = {c.scheme: c.mean_rrmse for c in cells}
        assert by_scheme["random"] > 10.0 * by_scheme["ocs"]
        assert by_scheme["spiral"] > 10.0 * by_scheme["ocs"]

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_experiment([3], 0)

    def test_trial_counts_with_colliding_seeds_rejected(self):
        # the derivation is pinned: published tables depend on these seeds
        assert _trial_seed(0, 5) == 5
        assert _trial_seed(7, 99) == 7 * 1_000_003 + 99
        # master seed 0, trial 1_000_003 would replay master seed 1, trial 0
        assert _trial_seed(0, 1_000_003) == _trial_seed(1, 0)
        with pytest.raises(ValueError, match="trials must be < 1000003"):
            run_experiment([3], 1_000_003)

    def test_csv_shape(self):
        cells = [ExperimentCell(3, "ocs", "K", 0.015, 2)]
        text = experiment_csv(cells)
        assert text.splitlines()[0] == "n,scheme,basis,mean_rrmse,trials"
        assert text.splitlines()[1].startswith("3,ocs,K,1.5")
