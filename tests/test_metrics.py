"""Circle metrics: wraparound distance, Hausdorff, separation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superres.circle import (
    hausdorff,
    positions,
    separation,
    wrap,
    wrap_dist,
    wrap_signed,
)

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
# 3232 = 32 N at f_c = 50, the re-seed grid while OVERSAMPLE was 32: a grid cell
# 96 cells (2 sigma1 at c1 = 1.5) from an atom that sits on a grid point
CELL_575, CELL_671 = 575 / 3232, 671 / 3232
point_sets = st.lists(unit, min_size=1, max_size=8).map(np.array)


def brute_hausdorff(a, b):
    """Independent O(n*m) definition: max of the two directed sup-inf distances."""
    a = np.atleast_1d(a)
    b = np.atleast_1d(b)
    d_ab = max(min(wrap_dist(x, y) for y in b) for x in a)
    d_ba = max(min(wrap_dist(x, y) for y in a) for x in b)
    return max(d_ab, d_ba)


class TestWrap:
    def test_wrap_into_unit_interval(self):
        assert wrap(1.25) == pytest.approx(0.25)
        assert wrap(-0.25) == pytest.approx(0.75)
        assert wrap(0.0) == 0.0

    def test_wrap_stays_below_one(self):
        # np.mod rounds -1e-20 up to 1.0; the circle calls that point 0.0
        t = np.array([-1e-20, -0.0, 0.9999999999999999])
        assert wrap(-1e-20) == 0.0
        assert np.array_equal(wrap(t), [0.0, 0.0, 0.9999999999999999])
        assert not np.signbit(wrap(t)).any()
        assert np.array_equal(positions([-1e-20, 0.5]), [0.0, 0.5])

    def test_dist_examples(self):
        assert wrap_dist(0.1, 0.9) == pytest.approx(0.2)
        assert wrap_dist(0.0, 0.5) == pytest.approx(0.5)
        assert wrap_dist(0.3, 0.3) == 0.0

    def test_dist_vectorized(self):
        a = np.array([0.1, 0.5])
        assert wrap_dist(a, 0.9).shape == (2,)

    @given(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=-4.0, max_value=4.0))
    @example(CELL_575, CELL_671)
    def test_dist_symmetry(self, a, b):
        # bit for bit: a separation test must not depend on the side it is asked from
        assert wrap_dist(a, b) == wrap_dist(b, a)
        assert wrap_dist(np.array([a]), b)[0] == wrap_dist(b, np.array([a]))[0]

    @given(unit, unit)
    def test_dist_bounded_by_half(self, a, b):
        assert 0.0 <= wrap_dist(a, b) <= 0.5

    @given(unit, unit, unit)
    def test_dist_triangle(self, a, b, c):
        assert wrap_dist(a, c) <= wrap_dist(a, b) + wrap_dist(b, c) + 1e-12

    @given(unit, unit, unit)
    def test_dist_shift_invariance(self, a, b, s):
        shifted = wrap_dist(wrap(a + s), wrap(b + s))
        assert shifted == pytest.approx(wrap_dist(a, b), abs=1e-12)

    @given(unit, unit)
    def test_signed_matches_dist(self, a, b):
        u = wrap_signed(a, b)
        assert abs(abs(u) - wrap_dist(a, b)) < 1e-12
        assert -0.5 < u <= 0.5

    def test_signed_antipodal_takes_positive_branch(self):
        assert wrap_signed(0.75, 0.25) == pytest.approx(0.5)
        assert wrap_signed(0.25, 0.75) == pytest.approx(0.5)


class TestHausdorff:
    def test_identical_sets(self):
        a = np.array([0.1, 0.4, 0.9])
        assert hausdorff(a, a) == 0.0

    def test_singletons(self):
        assert hausdorff([0.1], [0.9]) == pytest.approx(0.2)

    def test_asymmetric_sets(self):
        # one-directional nearness is not enough
        assert hausdorff([0.5], [0.5, 0.0]) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            hausdorff([], [0.5])

    @given(point_sets, point_sets)
    @settings(max_examples=50)
    def test_matches_brute_force(self, a, b):
        assert hausdorff(a, b) == pytest.approx(brute_hausdorff(a, b), abs=1e-12)

    @given(point_sets, point_sets)
    @settings(max_examples=50)
    def test_symmetry(self, a, b):
        assert hausdorff(a, b) == pytest.approx(hausdorff(b, a))

    @given(point_sets, point_sets, unit)
    @settings(max_examples=50)
    def test_shift_invariance(self, a, b, s):
        assert hausdorff(wrap(a + s), wrap(b + s)) == pytest.approx(
            hausdorff(a, b), abs=1e-12
        )

    @given(point_sets, point_sets, point_sets)
    @settings(max_examples=50)
    def test_triangle(self, a, b, c):
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12


class TestSeparation:
    def test_pair(self):
        assert separation([0.1, 0.9]) == pytest.approx(0.2)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.random(6)
            brute = min(
                wrap_dist(pts[i], pts[j])
                for i in range(6)
                for j in range(i + 1, 6)
            )
            assert separation(pts) == pytest.approx(brute)

    @given(st.lists(unit, min_size=2, max_size=12).map(np.array))
    @example(np.array([CELL_575, 0.9, CELL_671]))
    @example(np.array([0.25, 0.5, 0.25]))
    def test_neighbour_minimum_is_the_pairwise_minimum_bit_for_bit(self, pts):
        iu = np.triu_indices(pts.size, k=1)
        assert separation(pts) == wrap_dist(pts[:, None], pts[None, :])[iu].min()

    def test_fewer_than_two_raises(self):
        with pytest.raises(ValueError, match="separation"):
            separation([0.5])

    @given(st.lists(unit, min_size=2, max_size=8).map(np.array), unit)
    @settings(max_examples=50)
    def test_shift_invariance(self, pts, s):
        assert separation(wrap(pts + s)) == pytest.approx(separation(pts), abs=1e-12)

