"""Constant turn rate and velocity (CTRV) kinematics.

The same forward-Euler motion model drives the synthetic ground truth,
the per-node tracker prediction, and the center-node delay compensation.
State layout is ``[x, y, yaw, v, omega]`` with yaw in radians, v in m/s
and omega in rad/s. :func:`ctrv_advance` on plain floats is the one copy
of the motion formula, which the simulator calls directly; the array
form :func:`ctrv_step`, which the tracker uses, calls it.
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
    """:func:`ctrv_advance` on a state vector."""
    return np.array(ctrv_advance(*(float(s) for s in state), dt))


def ctrv_jacobian(state: np.ndarray, dt: float) -> np.ndarray:
    """Jacobian of :func:`ctrv_step` with respect to the state."""
    _, _, yaw, v, _ = (float(s) for s in state)
    F = np.eye(STATE_DIM)
    F[0, 2] = -v * math.sin(yaw) * dt
    F[0, 3] = math.cos(yaw) * dt
    F[1, 2] = v * math.cos(yaw) * dt
    F[1, 3] = math.sin(yaw) * dt
    F[2, 4] = dt
    return F
