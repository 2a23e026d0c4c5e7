"""Delay-aware cooperative indoor perception at desk scale.

Sensor-node perception (scanning-pattern-aware LiDAR clustering plus
ground-contact camera fusion and class-aware tracking), a deterministic
simulated network, and latency-compensated center-node fusion, evaluated
with detection precision/recall and average distance error on synthetic
indoor scenes.
"""

from .camera import (
    BBox2D,
    CameraModel,
    associate_foot_to_parent,
    overlap_ratio,
    project,
    recover_ground_position,
    vanishing_point_z,
)
from .clustering import (
    Cluster,
    ClusterParams,
    Segment,
    adaptive_epsilon,
    cluster_ring,
    cluster_scan,
    cluster_segments,
    dbscan_baseline,
    segment_distance,
)
from .evaluation import FrameScore, aggregate, benchmark_clustering, match_frame
from .global_fusion import (
    CenterNode,
    FusionParams,
    GlobalTrack,
    compensate_delay,
)
from .local_fusion import (
    LabeledObject,
    RoiGrid,
    associate_boxes_clusters,
    filter_roi,
    locate_boxes,
)
from .motion import ctrv_jacobian, ctrv_step, wrap_angle
from .scene import (
    DetectorProfile,
    LidarModel,
    RingScan,
    Room,
    WorldObject,
    detect_camera,
    make_bed,
    make_benchmark_scan,
    make_person,
    scan_lidar,
    simulate_step,
)
from .scenarios import BUILTIN_SCENARIOS, ScenarioConfig, flanking_scene
from .tracking import StampedObjectList, TrackedObject, Tracker, TrackerConfig, ctrv_predict
from .transport import (
    ClockModel,
    FrameError,
    LatencyModel,
    SimulatedNetwork,
    decode,
    encode,
    sample_latency,
)

__version__ = "0.1.0"
