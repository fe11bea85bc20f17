"""Monocular-seeded cylinder-region 3D detection geometry.

The library covers the full desk-scale detection pipeline: KITTI-format
ingestion, oriented-box geometry and IoU, monocular pose recovery by
corner-configuration search, spatial scattering of 3D seed points,
bounded location / rotation-bin / size-cluster codecs, multi-task losses
with analytic gradients, a staged detector over pluggable predictors
(ground-truth oracles included), and KITTI-style evaluation with recall
sweeps and a sensor-desynchronization simulator.

The loss functions are loaded on first access, because ``cyldet.losses``
imports scipy and no detection or evaluation path calls them.
"""

from .codec import (
    BrnOutput,
    InsufficientData,
    NanLogits,
    NonPositiveDims,
    OutOfBounds,
    ProposalRegion,
    RotationBins,
    RpnOutput,
    SizeClusters,
    decode_location,
    decode_rotation,
    decode_size,
    encode_location,
    encode_rotation,
    encode_size,
    fit_size_clusters,
    load_size_clusters,
    objectness,
    save_size_clusters,
)
from .evalbench import (
    DesyncConfig,
    EvalConfig,
    MatchResult,
    PrCurve,
    average_precision,
    desync_frame,
    desync_robustness_curve,
    evaluate_detections,
    match_detections,
    sweep_objectness,
    sweep_scatter,
    write_csv,
)
from .geometry import (
    BehindCamera,
    Box2D,
    Box3D,
    box3d_corners,
    iou_2d,
    iou_3d,
    iou_bev,
    normalize_yaw,
    project_box,
    project_boxes,
)
from .kitti import (
    CalibrationSet,
    FieldCountMismatch,
    FrameData,
    GroundTruthLabel,
    KittiFormatError,
    MalformedNumber,
    MissingFile,
    MissingKey,
    PointCloud,
    TruncatedRecord,
    WrongFrame,
    assign_difficulty,
    camera_to_lidar,
    emit_calibration,
    emit_labels,
    emit_velodyne,
    iter_split,
    lidar_to_camera,
    load_frame,
    parse_calibration,
    parse_labels,
    parse_velodyne,
    read_split_ids,
)
from .mono import (
    CornerConfiguration,
    MonoEstimate,
    NoFeasibleConfiguration,
    ScatterParams,
    ScatterResult,
    SingularSystem,
    enumerate_configurations,
    geometric_agreement_search,
    solve_translation,
    spatial_scatter,
)
from .pipeline import (
    Detection,
    EmptyCloud,
    Mono2DDetection,
    OracleConfig,
    PipelineConfig,
    Predictors,
    decode_boxes,
    detect_frame,
    gather_cylinder,
    nms_bev,
    oracle_predictors,
    read_detections,
    sample_points,
    seed_proposals,
    voxel_downsample,
    write_detections,
)

__version__ = "0.1.0"

_LOSSES = frozenset({
    "IndexOutOfRange",
    "LossBreakdown",
    "LossConfig",
    "brn_loss",
    "brn_loss_gradients",
    "cross_entropy",
    "huber",
    "rpn_loss",
    "rpn_loss_gradients",
})


def __getattr__(name):
    if name in _LOSSES:
        from . import losses
        return getattr(losses, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
