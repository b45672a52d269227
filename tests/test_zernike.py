import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CLASSIC_ZERNIKES, disk_gram, radial_poly_sum, zernike_row
from zernkit.domains import DiskZernikeBasis
from zernkit.zernike import (
    ZernikeIndex,
    basis_size,
    cartesian_to_polar,
    index_to_nm,
    nm_to_index,
    normalization,
    polar_to_cartesian,
    zernike_matrix,
    zernike_polar,
    zernike_xy,
)

# radii up to 6.5 cover the wavefront's global plane (rho up to about 6.2)
RADII = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=6.5))
ANGLES = st.floats(min_value=-10.0, max_value=10.0)


class TestIndexing:
    def test_basis_size(self):
        assert basis_size(0) == 1
        assert basis_size(10) == 66
        assert basis_size(30) == 496

    def test_single_index_examples(self):
        assert index_to_nm(0) == ZernikeIndex(0, 0, 0)
        assert nm_to_index(2, 0) == 4
        assert index_to_nm(1) == ZernikeIndex(1, -1, 1)

    def test_enumeration_order(self):
        # enumerate valid (n, m) pairs in j order and confirm the formula
        expected = []
        for n in range(8):
            for m in range(-n, n + 1, 2):
                expected.append((n, m))
        for j, (n, m) in enumerate(expected):
            idx = index_to_nm(j)
            assert (idx.n, idx.m) == (n, m)

    @given(st.integers(min_value=0, max_value=40))
    def test_bijection_over_orders(self, n):
        for m in range(-n, n + 1, 2):
            idx = index_to_nm(nm_to_index(n, m))
            assert (idx.n, idx.m) == (n, m)

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            nm_to_index(2, 1)  # parity
        with pytest.raises(ValueError):
            nm_to_index(1, 2)  # |m| > n
        with pytest.raises(ValueError):
            index_to_nm(-1)

    def test_index_dataclass_validates(self):
        with pytest.raises(ValueError):
            ZernikeIndex(2, 0, 5)


def radial_poly(n, m, rho):
    """R_n^m(rho) for m >= 0, from the kernel's cosine row (n, m) at
    theta = 0 over its normalization constant."""
    return zernike_matrix(n, rho, 0.0)[nm_to_index(n, m)] / normalization(n, m)


class TestRadial:
    def test_constant_mode(self):
        rho = np.linspace(0, 1, 7)
        assert np.all(radial_poly(0, 0, rho) == 1.0)

    def test_two_term_sum_by_hand(self):
        # R_4^2 = 4 rho^4 - 3 rho^2 at 0.5: 4/16 - 3/4
        assert radial_poly(4, 2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_single_term_boundary(self):
        for n in range(11):
            assert radial_poly(n, n, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_boundary_value_all_orders(self):
        for n in range(21):
            for m in range(n % 2, n + 1, 2):
                assert abs(radial_poly(n, m, 1.0) - 1.0) < 1e-9

    def test_recurrence_matches_factorial_sum(self):
        # the explicit sum loses digits to cancellation past n ~ 22, so the
        # 1e-9 agreement band is checked where the sum itself still has it
        rho = np.linspace(0.0, 1.0, 101)
        for n in range(23):
            for m in range(n % 2, n + 1, 2):
                diff = np.max(np.abs(radial_poly(n, m, rho) - radial_poly_sum(n, m, rho)))
                assert diff < 1e-9, (n, m)

    def test_deterministic_bitwise(self):
        rho = np.linspace(0, 1, 17)
        a = radial_poly(17, 3, rho)
        b = radial_poly(17, 3, rho)
        assert np.array_equal(a, b)


class TestEvaluation:
    def test_piston_everywhere(self):
        assert normalization(0, 0) == 1.0
        rho = np.array([0.0, 0.3, 1.0, 2.5])
        theta = np.array([0.0, 1.0, -2.0, 3.0])
        assert np.all(zernike_polar(0, rho, theta) == 1.0)

    def test_tilt_value(self):
        # j=1 -> (1, -1): 2 rho sin(theta)
        assert zernike_polar(1, 0.5, math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_one_polynomial_is_a_kernel_row(self):
        rho, theta = np.linspace(0.0, 2.0, 9), np.linspace(-3.0, 3.0, 9)
        for j in (0, 4, 17, 495):
            assert np.array_equal(zernike_polar(j, rho, theta), zernike_row(j, rho, theta))
            value = zernike_polar(j, 0.3, 1.1)
            assert type(value) is float and value == zernike_row(j, 0.3, 1.1)

    @pytest.mark.parametrize("j", sorted(CLASSIC_ZERNIKES))
    def test_against_classic_formulas(self, j):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.7, 0.7, size=(200, 2))
        got = zernike_xy(j, pts[:, 0], pts[:, 1])
        want = CLASSIC_ZERNIKES[j](pts[:, 0], pts[:, 1])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_orthonormal_to_order_10(self):
        gram = disk_gram(DiskZernikeBasis(10))
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    def test_evaluation_beyond_disk_allowed(self):
        assert np.isfinite(zernike_xy(7, 4.0, -3.0))


def assert_same_bits(values, expected):
    """Equal shapes and bit patterns, so -0.0 and 0.0 count as different.

    A NaN only has to be a NaN: numpy's vector and scalar loops return
    different operands' NaNs, so the sign bit of a NaN result follows the
    point's position in the array, in the kernel and in the oracle alike.
    """
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert values.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(values), nan)
    assert np.array_equal(values[~nan].view(np.uint64), expected[~nan].view(np.uint64))


def assert_rows_are_oracle_rows(order, rho, theta):
    values = zernike_matrix(order, rho, theta)
    shape = np.broadcast_shapes(np.shape(rho), np.shape(theta))
    assert values.shape == (basis_size(order),) + shape
    assert values.flags.c_contiguous
    for j in range(basis_size(order)):
        assert_same_bits(values[j], zernike_row(j, rho, theta))


# a few radii that every table shares: the origin with either sign, the rim
# and a point beyond it
SHARED_RADII = [0.0, -0.0, 1.0, 1.25]


class TestBatchedKernel:
    @given(
        st.integers(min_value=0, max_value=30),
        st.lists(st.tuples(RADII, ANGLES), min_size=1, max_size=20),
    )
    @settings(max_examples=60)
    def test_rows_equal_single_polynomials(self, order, points):
        rho, theta = (np.array(c) for c in zip(*points))
        rho = np.concatenate([rho, [0.0, 1.0]])
        theta = np.concatenate([theta, [0.7, -2.0]])
        assert_rows_are_oracle_rows(order, rho, theta)

    @given(st.integers(min_value=0, max_value=30), RADII, ANGLES)
    @settings(max_examples=60)
    def test_scalar_points(self, order, rho, theta):
        assert_rows_are_oracle_rows(order, rho, theta)

    @given(
        st.integers(min_value=0, max_value=30),
        st.lists(RADII, max_size=3),
        st.lists(ANGLES, min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=60)
    def test_repeated_radii(self, order, radii, angles, data):
        # every radius at every angle, in a drawn order: the recurrence runs
        # once per distinct radius and its rows are gathered to the points
        rho = np.repeat(SHARED_RADII + radii, len(angles))
        theta = np.tile(angles, len(SHARED_RADII) + len(radii))
        perm = np.array(data.draw(st.permutations(range(rho.size))))
        assert_rows_are_oracle_rows(order, rho[perm], theta[perm])

    def test_signed_zero_radius_keeps_its_rows(self):
        # R_n^m(-0.0) = -0.0 * P for odd m; radii told apart by value alone
        # would give both columns the sign of one of them
        values = zernike_matrix(5, np.array([0.0, -0.0]), np.array([0.4, 0.4]))
        assert np.signbit(values[nm_to_index(5, 1), 1])
        assert not np.signbit(values[nm_to_index(5, 1), 0])
        assert_rows_are_oracle_rows(5, np.array([0.0, -0.0]), np.array([0.4, 0.4]))

    @pytest.mark.parametrize("order", [1, 10, 30])
    def test_polar_tensor_mesh(self, order):
        # the layout of approximate_fekete's mesh: the origin, then every
        # area-uniform radius crossed with the same angles
        n_theta, n_r = 4 * (order + 1), 12
        r = np.sqrt(np.arange(1, n_r + 1) / n_r)
        t = 2.0 * np.pi * np.arange(n_theta) / n_theta
        rho = np.concatenate([[0.0], np.repeat(r, n_theta)])
        theta = np.concatenate([[0.0], np.tile(t, n_r)])
        assert_rows_are_oracle_rows(order, rho, theta)

    @pytest.mark.parametrize("order", [0, 1, 4, 30])
    def test_non_finite_points(self, order):
        rho = np.array([np.nan, 0.5, np.nan, np.inf, 0.5, 0.0, 7.0])
        theta = np.array([0.3, np.nan, np.nan, 1.0, np.inf, np.nan, -np.inf])
        with np.errstate(invalid="ignore", over="ignore"):
            assert_rows_are_oracle_rows(order, rho, theta)

    @pytest.mark.parametrize("order", [0, 3])
    def test_empty_points(self, order):
        assert zernike_matrix(order, np.array([]), np.array([])).shape == (
            basis_size(order),
            0,
        )
        assert zernike_matrix(order, np.array([]), 0.5).shape == (basis_size(order), 0)
        assert zernike_matrix(order, 0.5, np.zeros((2, 0))).shape == (
            basis_size(order),
            2,
            0,
        )

    def test_order_zero_is_the_piston(self):
        rho = np.array([0.0, -0.0, 0.5, 1.0, 3.0])
        theta = np.array([0.0, -1.0, 2.0, -0.0, 9.0])
        values = zernike_matrix(0, rho, theta)
        assert values.shape == (1, 5)
        assert np.all(values == 1.0)
        assert_rows_are_oracle_rows(0, rho, theta)

    @pytest.mark.parametrize("order", [0, 2, 15])
    def test_scalar_radius_with_array_angles(self, order):
        assert_rows_are_oracle_rows(order, 0.7, np.linspace(-4.0, 4.0, 9))
        assert_rows_are_oracle_rows(order, -0.0, np.linspace(-4.0, 4.0, 9))

    def test_strided_points(self):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.0, 1.5, (8, 6))[:, ::2]
        theta = rng.uniform(-4.0, 4.0, (8, 6))[::1, 1::2]
        assert not rho.flags.c_contiguous
        assert_rows_are_oracle_rows(12, rho, theta)

    @given(
        st.integers(min_value=0, max_value=30).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=n, max_value=30))
        ),
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1.2), ANGLES),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=60)
    def test_rows_do_not_depend_on_the_order(self, orders, points):
        # a table at a higher order serves every lower one by slicing
        order, higher = orders
        rho, theta = (np.array(c) for c in zip(*points))
        low = zernike_matrix(order, rho, theta)
        high = zernike_matrix(higher, rho, theta)
        assert_same_bits(low, high[: basis_size(order)])

    def test_broadcasts_like_single_polynomials(self):
        rho = np.linspace(0.0, 1.0, 4)[:, None]
        theta = np.linspace(-3.0, 3.0, 5)
        values = zernike_matrix(6, rho, theta)
        assert values.shape == (28, 4, 5)
        assert_rows_are_oracle_rows(6, rho, theta)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            zernike_matrix(-1, 0.5, 0.0)


class TestCoordinates:
    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=200)
    def test_roundtrip(self, rho, theta):
        x, y = polar_to_cartesian(rho, theta)
        r2, t2 = cartesian_to_polar(x, y)
        x2, y2 = polar_to_cartesian(r2, t2)
        assert abs(x2 - x) < 1e-14 * max(1.0, rho)
        assert abs(y2 - y) < 1e-14 * max(1.0, rho)

    def test_origin_angle_zero(self):
        rho, theta = cartesian_to_polar(0.0, 0.0)
        assert rho == 0.0
        assert theta == 0.0
