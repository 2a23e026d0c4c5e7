"""Constant turn rate and velocity (CTRV) kinematics.

The same forward-Euler motion model drives the synthetic ground truth,
the per-node tracker prediction, and the center-node delay compensation.
State layout is ``[x, y, yaw, v, omega]`` with yaw in radians, v in m/s
and omega in rad/s. :func:`ctrv_advance` on plain floats is the one copy
of the motion formula, which the simulator calls directly; the array
form :func:`ctrv_step`, which the tracker uses on all its tracks at once,
calls it once per state.
"""

from __future__ import annotations

import math

import numpy as np

STATE_DIM = 5


def wrap_angle(angle):
    """Normalize an angle (scalar or array) to (-pi, pi].

    Angles already in range pass through bit-exact; a scalar comes back as
    a Python float.
    """
    if isinstance(angle, float) and -math.pi < angle <= math.pi:
        return float(angle)  # np.float64 is a float too; return the plain type
    a = np.asarray(angle, dtype=float)
    wrapped = -((math.pi - a) % (2.0 * math.pi) - math.pi)
    out = np.where((a > -math.pi) & (a <= math.pi), a, wrapped)
    return out if out.ndim else float(out)


def ctrv_advance(x: float, y: float, yaw: float, v: float, omega: float,
                 dt: float) -> tuple[float, float, float, float, float]:
    """Advance a CTRV state by one step of duration ``dt``.

    x += v*cos(yaw)*dt, y += v*sin(yaw)*dt, yaw += omega*dt;
    v and omega are constant. Yaw is re-normalized to (-pi, pi].
    """
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    return (x + v * math.cos(yaw) * dt,
            y + v * math.sin(yaw) * dt,
            wrap_angle(yaw + omega * dt),
            v,
            omega)


def ctrv_step(state: np.ndarray, dt: float) -> np.ndarray:
    """:func:`ctrv_advance` on each state of a (..., 5) array."""
    state = np.asarray(state, dtype=float)
    rows = [ctrv_advance(*s, dt) for s in state.reshape(-1, STATE_DIM).tolist()]
    return np.array(rows, dtype=float).reshape(state.shape)


def ctrv_jacobian(state: np.ndarray, dt: float) -> np.ndarray:
    """Jacobian of :func:`ctrv_step` at each state of a (..., 5) array, as
    (..., 5, 5). The sines and cosines come from ``math``, as in
    :func:`ctrv_advance`, so every slice is the same at any stacking."""
    state = np.asarray(state, dtype=float)
    yaw, v = state[..., 2], state[..., 3]
    angles = yaw.ravel().tolist()
    cos = np.array([math.cos(a) for a in angles]).reshape(yaw.shape)
    sin = np.array([math.sin(a) for a in angles]).reshape(yaw.shape)
    F = np.broadcast_to(np.eye(STATE_DIM), state.shape + (STATE_DIM,)).copy()
    F[..., 0, 2] = -v * sin * dt
    F[..., 0, 3] = cos * dt
    F[..., 1, 2] = v * cos * dt
    F[..., 1, 3] = sin * dt
    F[..., 2, 4] = dt
    return F
