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
        values = zernike_matrix(order, rho, theta)
        assert values.shape == (basis_size(order), rho.size)
        for j in range(basis_size(order)):
            assert np.array_equal(values[j], zernike_row(j, rho, theta)), j

    @given(st.integers(min_value=0, max_value=30), RADII, ANGLES)
    @settings(max_examples=60)
    def test_scalar_points(self, order, rho, theta):
        values = zernike_matrix(order, rho, theta)
        assert values.shape == (basis_size(order),)
        for j in range(basis_size(order)):
            assert np.array_equal(values[j], zernike_row(j, rho, theta)), j

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
        assert np.array_equal(low, high[: basis_size(order)])

    def test_broadcasts_like_single_polynomials(self):
        rho = np.linspace(0.0, 1.0, 4)[:, None]
        theta = np.linspace(-3.0, 3.0, 5)
        values = zernike_matrix(6, rho, theta)
        assert values.shape == (28, 4, 5)
        for j in range(28):
            assert np.array_equal(values[j], zernike_row(j, rho, theta))

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
