import math

import numpy as np
import pytest

from coopercept.motion import ctrv_jacobian, ctrv_step, wrap_angle

from oracles import scalar_ctrv_iterate


def test_straight_line_step():
    out = ctrv_step(np.array([0.0, 0.0, 0.0, 1.0, 0.0]), 0.1)
    assert np.allclose(out, [0.1, 0.0, 0.0, 1.0, 0.0], atol=0.0)


def test_step_along_y():
    out = ctrv_step(np.array([0.0, 0.0, math.pi / 2.0, 2.0, 0.0]), 0.5)
    assert abs(out[1] - 1.0) < 1e-15
    assert abs(out[0]) < 1e-15


def test_ten_step_iterate_matches_scalar_oracle():
    # Frozen from the plain-float oracle: v=1, omega=0.5, dt=0.1, 10 steps.
    expected = (0.9647721801489468, 0.22081258989773617, 0.49999999999999994)
    state = np.array([0.0, 0.0, 0.0, 1.0, 0.5])
    for _ in range(10):
        state = ctrv_step(state, 0.1)
    assert abs(state[0] - expected[0]) < 1e-12
    assert abs(state[1] - expected[1]) < 1e-12
    assert abs(state[2] - expected[2]) < 1e-12
    # and the live oracle agrees with the frozen numbers
    live = scalar_ctrv_iterate(0.0, 0.0, 0.0, 1.0, 0.5, 0.1, steps=10)
    assert live[:3] == expected


def test_zero_dt_is_identity():
    state = np.array([3.0, -2.0, 0.7, 1.3, -0.4])
    assert np.array_equal(ctrv_step(state, 0.0), state)


def test_negative_dt_rejected():
    with pytest.raises(ValueError):
        ctrv_step(np.zeros(5), -0.1)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(50):
        state = rng.uniform(-2.0, 2.0, size=5)
        dt = rng.uniform(0.0, 0.5)
        F = ctrv_jacobian(state, dt)
        fd = np.zeros((5, 5))
        for j in range(5):
            hi = state.copy()
            lo = state.copy()
            hi[j] += step
            lo[j] -= step
            fd[:, j] = (ctrv_step(hi, dt) - ctrv_step(lo, dt)) / (2.0 * step)
        assert np.allclose(F, fd, rtol=1e-6, atol=1e-6)


def test_wrap_angle_range():
    angles = np.linspace(-12.0, 12.0, 2001)
    wrapped = wrap_angle(angles)
    assert np.all(wrapped > -math.pi)
    assert np.all(wrapped <= math.pi)
    # wrapping preserves the point on the circle
    assert np.allclose(np.cos(wrapped), np.cos(angles), atol=1e-12)
    assert np.allclose(np.sin(wrapped), np.sin(angles), atol=1e-12)
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


def test_wrap_angle_scalar_is_a_plain_float_equal_to_the_array_path():
    cases = [0.0, -0.0, 1.25, -3.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0),
             math.nextafter(-math.pi, 0.0), math.pi + 1e-9, -math.pi - 1e-9, 4.0, -7.5,
             123.0, np.float64(2.0), np.float64(-math.pi), np.float64(5.0), 3]
    for angle in cases:
        got = wrap_angle(angle)
        assert type(got) is float
        assert repr(got) == repr(float(wrap_angle(np.array([angle], dtype=float))[0]))
