"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans and counts they record.

Each function is patched in every module that looks it up at call time:
``pipeline.detect_frame`` calls ``pipeline.seed_proposals`` and
``pipeline.gather_cylinder``, the sweeps call the same names through
``evalbench``, and the CLI calls ``cli.detect_frame``.  A name a module
only imports but never calls on these paths is left alone.
"""

import logging
from contextlib import contextmanager

from spans import DropCounter

from cyldet import cli, evalbench, kitti, mono, pipeline, synthetic
from cyldet.codec import objectness

ENCODERS = ("encode_location", "encode_rotation", "encode_size")
DECODERS = ("decode_location", "decode_rotation", "decode_size", "objectness")
DROP_TYPES = ("EmptyCloud", "BehindCamera", "NonPositiveDims", "OutOfBounds")


def _frame_id(args):
    return args[0].frame_id


def wrap_predictors(tracer, predictors, objectness_threshold):
    """The three predictor callables, each inside a span.  The proposal
    head also counts the regions whose objectness clears the threshold."""
    def rpn_passed(args, out):
        return {"pipeline.rpn.passed":
                int(objectness(out.t_obj) >= objectness_threshold)}

    return pipeline.Predictors(
        monocular=tracer.wrap("mono.monocular", predictors.monocular),
        rpn=tracer.wrap("pipeline.rpn", predictors.rpn, observe=rpn_passed),
        brn=tracer.wrap("pipeline.brn", predictors.brn),
    )


def install(tracer, objectness_threshold):
    """Patch every layer boundary; tracer.restore() undoes all of it."""
    patch = tracer.patch

    patch(synthetic, "make_frames", "synthetic.make_frames")
    patch(synthetic, "write_dataset", "synthetic.write_dataset")

    patch(kitti, "load_frame", "kitti.load_frame", frame_of=lambda a: a[1])
    patch(kitti, "parse_velodyne", "kitti.parse_velodyne",
          observe=lambda a, r: {"kitti.bytes_read": len(a[0])})
    patch(kitti, "lidar_to_camera", "kitti.lidar_to_camera")

    patch(pipeline, "geometric_agreement_search", "mono.agreement_search")
    patch(pipeline, "spatial_scatter", "mono.spatial_scatter",
          observe=lambda a, r: {"mono.seeds": len(r)})
    for name in ("iou_2d", "project_box"):
        patch(mono, name, "geometry." + name)
        patch(pipeline, name, "geometry." + name)

    for owner in (pipeline, evalbench):
        patch(owner, "seed_proposals", "pipeline.seed_proposals",
              observe=lambda a, r: {"pipeline.proposals": len(r)})
        patch(owner, "gather_cylinder", "pipeline.gather_cylinder",
              observe=lambda a, r: {"pipeline.gather_cylinder.points_scanned":
                                    len(a[0]),
                                    "pipeline.gather_cylinder.empty":
                                    int(len(r) == 0)})
        patch(owner, "voxel_downsample", "pipeline.voxel_downsample",
              observe=lambda a, r: {"pipeline.voxel_downsample.points_in":
                                    len(a[0])})
        patch(owner, "sample_points", "pipeline.sample_points")
        patch(owner, "objectness", "codec.objectness")
    for owner in (pipeline, evalbench, cli):
        patch(owner, "detect_frame", "pipeline.detect_frame", frame_of=_frame_id)
    patch(pipeline, "nms_bev", "pipeline.nms_bev",
          observe=lambda a, r: {"pipeline.nms_bev.in": len(a[0]),
                                "pipeline.nms_bev.kept": len(r)})
    patch(pipeline, "iou_bev", "geometry.iou_bev")
    for name in ENCODERS + DECODERS[:-1]:
        patch(pipeline, name, "codec." + name)

    pairs = {"evalbench.match_pairs": 1}
    patch(evalbench, "iou_3d", "geometry.iou_3d", observe=lambda a, r: pairs)
    patch(evalbench, "iou_bev", "geometry.iou_bev", observe=lambda a, r: pairs)
    for owner in (evalbench, cli):
        patch(owner, "evaluate_detections", "evalbench.evaluate_detections")
        patch(owner, "sweep_scatter", "evalbench.sweep_scatter")
        patch(owner, "sweep_objectness", "evalbench.sweep_objectness")

    patch(cli, "cmd_detect", "cli.cmd_detect")
    patch(cli, "cmd_sweep", "cli.cmd_sweep")
    patch(cli, "write_detections", "cli.write_detections")
    tracer.replace(
        cli, "oracle_predictors",
        lambda make: lambda *a, **k: wrap_predictors(
            tracer, make(*a, **k), objectness_threshold),
    )


@contextmanager
def installed(tracer, objectness_threshold):
    """install() for the duration of a with block, with the proposals the
    pipeline drops counted into the tracer; a None tracer wraps nothing."""
    if tracer is None:
        yield
        return
    logger = logging.getLogger("cyldet")
    drops = DropCounter(tracer.add)
    install(tracer, objectness_threshold)
    logger.addHandler(drops)
    try:
        yield
    finally:
        logger.removeHandler(drops)
        tracer.restore()


def _calls(agg, *names):
    return sum(agg[n][0] for n in names if n in agg)


def _self_ms(agg, *names):
    return 1e3 * sum(agg[n][2] for n in names if n in agg)


def per_layer(agg, counts):
    """The per-layer metrics, {name: (value, unit)}, from aggregated spans
    {name: (calls, total_s, self_s)} and counters.  A layer the workload
    never reaches reads 0."""
    c = counts.get
    rpn_calls = _calls(agg, "pipeline.rpn")
    drops = {t: c("pipeline.proposal_drops." + t, 0) for t in DROP_TYPES}
    drops_total = sum(v for k, v in counts.items()
                      if k.startswith("pipeline.proposal_drops."))
    out = {
        "mono.monocular.self_ms": (_self_ms(agg, "mono.monocular"), "ms"),
        "mono.agreement_search.calls": (_calls(agg, "mono.agreement_search"), "count"),
        "mono.agreement_search.self_ms": (_self_ms(agg, "mono.agreement_search"), "ms"),
        "mono.spatial_scatter.self_ms": (_self_ms(agg, "mono.spatial_scatter"), "ms"),
        "mono.seeds": (c("mono.seeds", 0), "count"),
        "mono.pose_failures": (c("mono.agreement_search.raised", 0)
                               + c("mono.spatial_scatter.raised", 0), "count"),
        "pipeline.seed_proposals.self_ms": (_self_ms(agg, "pipeline.seed_proposals"), "ms"),
        "pipeline.proposals": (c("pipeline.proposals", 0), "count"),
        "pipeline.gather_cylinder.calls": (_calls(agg, "pipeline.gather_cylinder"), "count"),
        "pipeline.gather_cylinder.self_ms": (_self_ms(agg, "pipeline.gather_cylinder"), "ms"),
        "pipeline.gather_cylinder.points_scanned":
            (c("pipeline.gather_cylinder.points_scanned", 0), "count"),
        "pipeline.gather_cylinder.empty": (c("pipeline.gather_cylinder.empty", 0), "count"),
        "pipeline.voxel_downsample.self_ms": (_self_ms(agg, "pipeline.voxel_downsample"), "ms"),
        "pipeline.voxel_downsample.points_in":
            (c("pipeline.voxel_downsample.points_in", 0), "count"),
        "pipeline.sample_points.self_ms": (_self_ms(agg, "pipeline.sample_points"), "ms"),
        "pipeline.rpn.calls": (rpn_calls, "count"),
        "pipeline.rpn.self_ms": (_self_ms(agg, "pipeline.rpn"), "ms"),
        "pipeline.rpn.passed": (c("pipeline.rpn.passed", 0), "count"),
        "pipeline.rpn.pass_ratio":
            (c("pipeline.rpn.passed", 0) / rpn_calls if rpn_calls else 0.0, "ratio"),
        "pipeline.brn.calls": (_calls(agg, "pipeline.brn"), "count"),
        "pipeline.brn.self_ms": (_self_ms(agg, "pipeline.brn"), "ms"),
        "pipeline.detect_frame.calls": (_calls(agg, "pipeline.detect_frame"), "count"),
        "pipeline.detect_frame.self_ms": (_self_ms(agg, "pipeline.detect_frame"), "ms"),
        "pipeline.nms_bev.self_ms": (_self_ms(agg, "pipeline.nms_bev"), "ms"),
        "pipeline.nms_bev.in": (c("pipeline.nms_bev.in", 0), "count"),
        "pipeline.nms_bev.kept": (c("pipeline.nms_bev.kept", 0), "count"),
        "pipeline.proposal_drops.total": (drops_total, "count"),
        **{"pipeline.proposal_drops." + t: (n, "count") for t, n in drops.items()},
        "pipeline.proposal_drops.other": (drops_total - sum(drops.values()), "count"),
        "geometry.iou_bev.calls": (_calls(agg, "geometry.iou_bev"), "count"),
        "geometry.iou_bev.self_ms": (_self_ms(agg, "geometry.iou_bev"), "ms"),
        "geometry.iou_3d.calls": (_calls(agg, "geometry.iou_3d"), "count"),
        "geometry.iou_3d.self_ms": (_self_ms(agg, "geometry.iou_3d"), "ms"),
        "geometry.project_box.self_ms": (_self_ms(agg, "geometry.project_box"), "ms"),
        "geometry.iou_2d.self_ms": (_self_ms(agg, "geometry.iou_2d"), "ms"),
        "codec.encode.self_ms": (_self_ms(agg, *("codec." + n for n in ENCODERS)), "ms"),
        "codec.decode.self_ms": (_self_ms(agg, *("codec." + n for n in DECODERS)), "ms"),
        "evalbench.evaluate_detections.self_ms":
            (_self_ms(agg, "evalbench.evaluate_detections"), "ms"),
        "evalbench.match_pairs": (c("evalbench.match_pairs", 0), "count"),
        "evalbench.sweep_scatter.self_ms": (_self_ms(agg, "evalbench.sweep_scatter"), "ms"),
        "evalbench.sweep_objectness.self_ms":
            (_self_ms(agg, "evalbench.sweep_objectness"), "ms"),
        "kitti.load_frame.calls": (_calls(agg, "kitti.load_frame"), "count"),
        "kitti.load_frame.self_ms": (_self_ms(agg, "kitti.load_frame"), "ms"),
        "kitti.parse_velodyne.self_ms": (_self_ms(agg, "kitti.parse_velodyne"), "ms"),
        "kitti.lidar_to_camera.self_ms": (_self_ms(agg, "kitti.lidar_to_camera"), "ms"),
        "kitti.bytes_read": (c("kitti.bytes_read", 0), "bytes"),
        "cli.cmd_detect.self_ms": (_self_ms(agg, "cli.cmd_detect"), "ms"),
        "cli.cmd_sweep.self_ms": (_self_ms(agg, "cli.cmd_sweep"), "ms"),
        "cli.write_detections.self_ms": (_self_ms(agg, "cli.write_detections"), "ms"),
        "synthetic.make_frames.self_ms": (_self_ms(agg, "synthetic.make_frames"), "ms"),
        "synthetic.write_dataset.self_ms": (_self_ms(agg, "synthetic.write_dataset"), "ms"),
    }
    return out
