"""Delay-aware cooperative indoor perception at desk scale.

Sensor-node perception (scanning-pattern-aware LiDAR clustering plus
ground-contact camera fusion and class-aware tracking), a deterministic
simulated network, and latency-compensated center-node fusion, evaluated
with detection precision/recall and average distance error on synthetic
indoor scenes.
"""

__version__ = "0.1.0"
