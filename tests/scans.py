"""Ring scans built by hand for tests."""

import math

import numpy as np

from coopercept.scene import RingScan


def scan_from_rings(rings, timestamp=0.0, dphi=math.radians(0.2), dtheta=math.radians(2.0)):
    """A RingScan of per-ring ``(ring, azimuths, ranges, points)`` tuples,
    concatenated in the given order; a ring without points adds nothing.
    ``dphi``/``dtheta`` are the resolutions of the sensor it stands for."""
    rings = list(rings)
    return RingScan(
        timestamp=timestamp,
        ring=np.concatenate([np.zeros(0, dtype=int)]
                            + [np.full(len(az), r) for r, az, _, _ in rings]),
        azimuths=np.concatenate([np.zeros(0)]
                                + [np.asarray(az, dtype=float) for _, az, _, _ in rings]),
        ranges=np.concatenate([np.zeros(0)]
                              + [np.asarray(s, dtype=float) for _, _, s, _ in rings]),
        points=np.concatenate([np.zeros((0, 3))]
                              + [np.asarray(p, dtype=float).reshape(-1, 3)
                                 for _, _, _, p in rings]),
        dphi=dphi, dtheta=dtheta)
