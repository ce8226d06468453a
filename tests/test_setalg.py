import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnmpc.setalg import Ball, TubeProfile, tube_radius
from oracles import EMPTY, minkowski_add, pontryagin_diff, sample_ball


def test_ball_validates_radius():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -0.1)


def test_minkowski_radii_add():
    a = Ball([0.0, 2.0], 1.0)
    b = Ball([1.0, -1.0], 0.5)
    c = minkowski_add(a, b)
    assert np.allclose(c.center, [1.0, 1.0])
    assert c.radius == pytest.approx(1.5)


def test_pontryagin_radii_subtract():
    c = pontryagin_diff(Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0], 0.4))
    assert c.radius == pytest.approx(0.6)


def test_pontryagin_empty_when_subtrahend_larger():
    assert pontryagin_diff(Ball([0.0, 0.0], 0.3), Ball([0.0, 0.0], 0.4)) is EMPTY


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        minkowski_add(Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0))


def test_minkowski_against_sampling_oracle():
    rng = np.random.default_rng(0)
    a = Ball([1.0, -2.0], 0.8)
    b = Ball([-0.5, 0.5], 1.3)
    c = minkowski_add(a, b)
    sums = sample_ball(a, rng, 10_000) + sample_ball(b, rng, 10_000)
    dists = np.linalg.norm(sums - c.center, axis=1)
    assert dists.max() <= c.radius + 1e-6


def test_pontryagin_against_membership_oracle():
    rng = np.random.default_rng(1)
    a = Ball([0.0, 0.0], 2.0)
    b = Ball([0.0, 0.0], 0.7)
    c = pontryagin_diff(a, b)
    # every point of the difference plus every point of b stays inside a
    pts = sample_ball(c, rng, 10_000)
    worst = np.linalg.norm(pts - a.center, axis=1).max() + b.radius
    assert worst <= a.radius + 1e-6


@given(
    r1=st.floats(0.0, 10.0),
    r2=st.floats(0.0, 10.0),
    r3=st.floats(0.0, 10.0),
)
@settings(max_examples=200)
def test_add_then_subtract_identity(r1, r2, r3):
    """(A + B) - C with C = B recovers A's radius exactly for balls."""
    a = Ball([0.0, 0.0], r1)
    b = Ball([1.0, 1.0], r2)
    c = pontryagin_diff(minkowski_add(a, b), b)
    assert c is not EMPTY
    assert abs(c.radius - r1) < 1e-12
    assert np.allclose(c.center, a.center, atol=1e-12)
    # erosion beyond the sum is empty
    big = Ball([0.0, 0.0], r1 + r2 + r3 + 1e-9)
    assert pontryagin_diff(minkowski_add(a, b), big) is EMPTY


def test_tube_radius_zero_at_zero():
    p = TubeProfile(0.1, 8.5883)
    assert tube_radius(p, 0.0) == 0.0


def test_tube_radius_negative_time_raises():
    with pytest.raises(ValueError):
        tube_radius(TubeProfile(0.1, 1.0), -0.01)


def test_tube_radius_closed_form():
    p = TubeProfile(0.1, 8.5883)
    expected = (0.1 / 8.5883) * (math.exp(8.5883 * 0.1) - 1.0)
    assert tube_radius(p, 0.1) == pytest.approx(expected, rel=1e-12)
    assert tube_radius(p, 0.1) == pytest.approx(0.0158404, abs=1e-6)


def test_tube_radius_small_lipschitz_limit():
    tiny = TubeProfile(0.1, 1e-9)
    # second-order Taylor expansion, no cancellation blowup
    assert tube_radius(tiny, 2.0) == pytest.approx(0.2, rel=1e-8)


@given(tau=st.floats(0.0, 2.0), dt=st.floats(0.001, 1.0))
@settings(max_examples=100)
def test_tube_radius_monotone(tau, dt):
    p = TubeProfile(0.05, 3.0)
    assert tube_radius(p, tau + dt) > tube_radius(p, tau)


def test_profile_validation():
    with pytest.raises(ValueError):
        TubeProfile(-0.1, 1.0)
    with pytest.raises(ValueError):
        TubeProfile(0.1, 0.0)
