"""Unit tests for repro.geometry.paths (Manhattan path machinery)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.paths import (
    HORIZONTAL_FIRST,
    VERTICAL_FIRST,
    ManhattanPath,
    choose_corners,
    leg_lengths,
    path_corner,
    position_along_path,
)

coord = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


class TestManhattanPath:
    def test_corner_vertical_first(self):
        path = ManhattanPath(start=(1.0, 2.0), end=(5.0, 7.0), vertical_first=True)
        assert path.corner == (1.0, 7.0)

    def test_corner_horizontal_first(self):
        path = ManhattanPath(start=(1.0, 2.0), end=(5.0, 7.0), vertical_first=False)
        assert path.corner == (5.0, 2.0)

    def test_length_is_manhattan(self):
        path = ManhattanPath(start=(1.0, 2.0), end=(5.0, 7.0), vertical_first=True)
        assert path.length == pytest.approx(4.0 + 5.0)

    def test_leg_lengths_sum(self):
        path = ManhattanPath(start=(1.0, 2.0), end=(5.0, 7.0), vertical_first=True)
        assert path.first_leg_length + path.second_leg_length == pytest.approx(path.length)
        assert path.first_leg_length == pytest.approx(5.0)

    def test_point_at_endpoints(self):
        path = ManhattanPath(start=(1.0, 2.0), end=(5.0, 7.0), vertical_first=False)
        assert path.point_at(0.0) == pytest.approx((1.0, 2.0))
        assert path.point_at(path.length) == pytest.approx((5.0, 7.0))

    def test_point_at_corner(self):
        path = ManhattanPath(start=(1.0, 2.0), end=(5.0, 7.0), vertical_first=False)
        assert path.point_at(path.first_leg_length) == pytest.approx(path.corner)

    def test_point_at_clips(self):
        path = ManhattanPath(start=(0.0, 0.0), end=(2.0, 2.0), vertical_first=True)
        assert path.point_at(-5.0) == pytest.approx((0.0, 0.0))
        assert path.point_at(100.0) == pytest.approx((2.0, 2.0))


class TestVectorizedPaths:
    def test_path_corner_matches_scalar(self, rng):
        start = rng.uniform(0, 10, (20, 2))
        end = rng.uniform(0, 10, (20, 2))
        choice = rng.integers(0, 2, 20)
        corners = path_corner(start, end, choice)
        for i in range(20):
            expected = ManhattanPath(
                tuple(start[i]), tuple(end[i]), choice[i] == VERTICAL_FIRST
            ).corner
            assert corners[i] == pytest.approx(expected)

    def test_choose_corners_uniform_split(self, rng):
        start = np.zeros((4000, 2))
        end = np.ones((4000, 2))
        _corners, choice = choose_corners(start, end, rng)
        frac = np.mean(choice == VERTICAL_FIRST)
        assert 0.45 < frac < 0.55

    def test_leg_lengths_sum_to_manhattan(self, rng):
        start = rng.uniform(0, 10, (50, 2))
        end = rng.uniform(0, 10, (50, 2))
        choice = rng.integers(0, 2, 50)
        first, second = leg_lengths(start, end, choice)
        total = np.abs(end - start).sum(axis=1)
        assert np.allclose(first + second, total)

    @given(
        x0=coord, y0=coord, x1=coord, y1=coord,
        frac=st.floats(min_value=0.0, max_value=1.0),
        vertical=st.booleans(),
    )
    @settings(max_examples=60)
    def test_position_along_path_on_path(self, x0, y0, x1, y1, frac, vertical):
        """Any interpolated point lies on one of the two legs."""
        start = np.array([[x0, y0]])
        end = np.array([[x1, y1]])
        choice = np.array([VERTICAL_FIRST if vertical else HORIZONTAL_FIRST])
        total = abs(x1 - x0) + abs(y1 - y0)
        point = position_along_path(start, end, choice, np.array([frac * total]))[0]
        on_first_leg = (
            np.isclose(point[0], x0) if vertical else np.isclose(point[1], y0)
        )
        on_second_leg = (
            np.isclose(point[1], y1) if vertical else np.isclose(point[0], x1)
        )
        assert on_first_leg or on_second_leg

    @given(x0=coord, y0=coord, x1=coord, y1=coord, vertical=st.booleans())
    @settings(max_examples=60)
    def test_position_along_path_distance_consistency(self, x0, y0, x1, y1, vertical):
        """Walking d units from the start covers exactly d of Manhattan length."""
        start = np.array([[x0, y0]])
        end = np.array([[x1, y1]])
        choice = np.array([VERTICAL_FIRST if vertical else HORIZONTAL_FIRST])
        total = abs(x1 - x0) + abs(y1 - y0)
        travelled = 0.37 * total
        point = position_along_path(start, end, choice, np.array([travelled]))[0]
        walked = abs(point[0] - x0) + abs(point[1] - y0)
        assert walked == pytest.approx(travelled, abs=1e-9)

    def test_subnormal_first_leg_does_not_warn(self):
        """A walker past a subnormal first leg: the first-leg quotient
        overflows, is clipped and is never selected, so no warning may
        escape and the point sits halfway along the second leg."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = position_along_path(
                np.array([[0.0, 0.0]]), np.array([[5e-324, 1.0]]),
                np.array([HORIZONTAL_FIRST]), np.array([0.5]),
            )[0]
        assert point.tolist() == [5e-324, 0.5]

    def test_zero_length_path(self):
        start = np.array([[3.0, 3.0]])
        point = position_along_path(
            start, start, np.array([VERTICAL_FIRST]), np.array([0.0])
        )[0]
        assert point == pytest.approx([3.0, 3.0])
