"""Command-line front end: pose solving, detection runs, sweeps, k-means.

Settings compose from three layers, later ones winning: built-in
defaults, an INI-style config file (sections per module), and command
line flags.  The dataset root additionally falls back to the
ROARNET_DATASET_ROOT environment variable.  Every run echoes its
effective configuration into the output directory, and every command
honors --seed for full determinism.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

import argparse
import configparser
import json
import os
import sys
import traceback

from .codec import (
    RotationBins,
    fit_size_clusters,
    load_size_clusters,
    save_size_clusters,
)
from .evalbench import (
    EvalConfig,
    desync_robustness_curve,
    evaluate_detections,
    sweep_objectness,
    sweep_scatter,
    write_csv,
)
from .geometry import Box2D
from .kitti import MissingFile, iter_split, parse_calibration
from .mono import (
    DEFAULT_RESIDUAL_CAP,
    NoFeasibleConfiguration,
    ScatterParams,
    geometric_agreement_search,
)
from .pipeline import (
    DEFAULT_SIZE_CLUSTERS,
    PIPELINE_MODES,
    OracleConfig,
    PipelineConfig,
    detect_frame,
    oracle_predictors,
    write_detections,
)

ENV_DATASET_ROOT = "ROARNET_DATASET_ROOT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_PIPELINE = PipelineConfig()
_ORACLE = OracleConfig()
_EVAL = EvalConfig()

# (section, key, cast, default, flag dest or None) for every config-file
# setting.  Defaults come from the config dataclasses; the size clusters
# file and the desync settings belong to none of them.
_SCHEMA = [
    ("run", "dataset_root", str, None, "dataset_root"),
    ("run", "split", str, None, "split"),
    ("run", "output_dir", str, None, "output_dir"),
    ("run", "mode", str, _PIPELINE.mode, "mode"),
    ("run", "seed", int, _PIPELINE.seed, "seed"),
    ("scatter", "s", float, _PIPELINE.scatter.s, "scatter_s"),
    ("scatter", "stride", float, _PIPELINE.scatter.stride, "scatter_stride"),
    ("thresholds", "objectness", float, _PIPELINE.objectness_threshold,
     "objectness_threshold"),
    ("thresholds", "nms", float, _PIPELINE.nms_threshold, "nms_threshold"),
    ("oracle", "dims_noise_sigma", float, _ORACLE.dims_noise_sigma, "dims_noise"),
    ("oracle", "yaw_noise_sigma", float, _ORACLE.yaw_noise_sigma, "yaw_noise"),
    ("oracle", "center_noise_sigma", float, _ORACLE.center_noise_sigma,
     "center_noise"),
    ("oracle", "box2d_noise_sigma", float, _ORACLE.box2d_noise_sigma,
     "box2d_noise"),
    ("pipeline", "radius", float, _PIPELINE.region_radius, "radius"),
    ("pipeline", "y_min", float, _PIPELINE.region_y_extent[0], None),
    ("pipeline", "y_max", float, _PIPELINE.region_y_extent[1], None),
    ("pipeline", "bound", float, _PIPELINE.region_bounds[0], None),
    ("pipeline", "voxel_resolution", float, _PIPELINE.voxel_resolution, None),
    ("pipeline", "sample_count", int, _PIPELINE.sample_count, None),
    ("pipeline", "residual_cap", float, _PIPELINE.residual_cap, "residual_cap"),
    ("pipeline", "rotation_bins", int, _PIPELINE.bins.n_bins, None),
    ("pipeline", "size_clusters_file", str, "", "size_clusters_file"),
    ("eval", "iou_threshold", float, _EVAL.iou_threshold, "iou_threshold"),
    ("eval", "difficulty", str, _EVAL.difficulty, "difficulty"),
    ("eval", "ap_mode", str, _EVAL.ap_mode, "ap_mode"),
    ("eval", "match_metric", str, _EVAL.match_metric, "match_metric"),
    ("desync", "vertical_ratio", float, 0.25, None),
    ("desync", "metric", str, "recall", "desync_metric"),
    ("desync", "seeds", int, 1, "desync_seeds"),
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_settings(args):
    """Merge defaults, config file, and flags (flags win)."""
    cfg = configparser.ConfigParser()
    config_path = getattr(args, "config", None)
    if config_path:
        if not os.path.exists(config_path):
            raise MissingFile(f"config file {config_path} not found")
        cfg.read(config_path)
    settings = {}
    for section, key, cast, default, dest in _SCHEMA:
        value = default
        if cfg.has_option(section, key):
            value = cast(cfg.get(section, key))
        if dest is not None and getattr(args, dest, None) is not None:
            value = getattr(args, dest)
        settings[(section, key)] = value
    if settings[("run", "dataset_root")] is None:
        settings[("run", "dataset_root")] = os.environ.get(ENV_DATASET_ROOT)
    return settings


def _echo_settings(settings, output_dir):
    echo = configparser.ConfigParser()
    for (section, key), value in settings.items():
        if not echo.has_section(section):
            echo.add_section(section)
        echo.set(section, key, "" if value is None else str(value))
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, "config_effective.ini"), "w",
              encoding="utf-8") as fh:
        echo.write(fh)


def _pipeline_config(settings):
    path = settings[("pipeline", "size_clusters_file")]
    clusters = load_size_clusters(path) if path else DEFAULT_SIZE_CLUSTERS
    bound = settings[("pipeline", "bound")]
    return PipelineConfig(
        scatter=ScatterParams(
            settings[("scatter", "s")], settings[("scatter", "stride")]
        ),
        mode=settings[("run", "mode")],
        objectness_threshold=settings[("thresholds", "objectness")],
        nms_threshold=settings[("thresholds", "nms")],
        region_radius=settings[("pipeline", "radius")],
        region_y_extent=(
            settings[("pipeline", "y_min")], settings[("pipeline", "y_max")]
        ),
        region_bounds=(bound, bound, bound),
        voxel_resolution=settings[("pipeline", "voxel_resolution")],
        sample_count=settings[("pipeline", "sample_count")],
        residual_cap=settings[("pipeline", "residual_cap")],
        clusters=clusters,
        bins=RotationBins(settings[("pipeline", "rotation_bins")]),
        seed=settings[("run", "seed")],
    )


def _oracle_config(settings):
    return OracleConfig(
        dims_noise_sigma=settings[("oracle", "dims_noise_sigma")],
        yaw_noise_sigma=settings[("oracle", "yaw_noise_sigma")],
        center_noise_sigma=settings[("oracle", "center_noise_sigma")],
        box2d_noise_sigma=settings[("oracle", "box2d_noise_sigma")],
        rng_seed=settings[("run", "seed")],
    )


def _eval_config(settings):
    return EvalConfig(
        iou_threshold=settings[("eval", "iou_threshold")],
        difficulty=settings[("eval", "difficulty")],
        ap_mode=settings[("eval", "ap_mode")],
        match_metric=settings[("eval", "match_metric")],
    )


def _load_frames(settings):
    """The split's frames, loaded one at a time as the caller reads them."""
    root = settings[("run", "dataset_root")]
    split = settings[("run", "split")]
    if not root or not split:
        raise UsageError("--dataset-root and --split are required "
                         f"(or set {ENV_DATASET_ROOT})")
    split_path = split if os.path.exists(split) else os.path.join(root, split)
    if not os.path.exists(split_path):
        raise MissingFile(f"split list {split} not found")
    return iter_split(split_path, root)


def _parse_floats(text):
    return [float(t) for t in text.split(",") if t.strip()]


def _parse_values(text):
    """Grid spec: either 'start:stop:step' (inclusive) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad range spec {text!r}, want start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise UsageError("range step must be positive")
        values = []
        v = start
        while v <= stop + 1e-9:
            values.append(round(v, 10))
            v += step
        return values
    return _parse_floats(text)


def cmd_solve_pose(args):
    if args.calib:
        with open(args.calib, "r", encoding="utf-8") as fh:
            calib = parse_calibration(fh.read())
    elif args.dataset_root and args.frame:
        path = os.path.join(args.dataset_root, "calib", args.frame + ".txt")
        if not os.path.exists(path):
            raise MissingFile(f"calib file {path} not found")
        with open(path, "r", encoding="utf-8") as fh:
            calib = parse_calibration(fh.read())
    else:
        raise UsageError("provide --calib FILE or --dataset-root with --frame")
    coords = _parse_floats(args.box2d)
    dims = _parse_floats(args.dims)
    if len(coords) != 4 or len(dims) != 3:
        raise UsageError("--box2d needs 4 values and --dims needs 3")
    box2d = Box2D(*coords)
    est = geometric_agreement_search(
        box2d, tuple(dims), args.yaw, calib.p2,
        residual_cap=args.residual_cap, reduced=args.reduced,
    )
    cfg = est.best_config
    if args.json:
        print(json.dumps({
            "center": list(est.solved_center),
            "config": {"left": cfg.left, "right": cfg.right,
                       "top": cfg.top, "bottom": cfg.bottom,
                       "index": cfg.index},
            "agreement": est.agreement,
            "residual_px": est.residual,
        }))
    else:
        print(f"center: {est.solved_center[0]:.6f} "
              f"{est.solved_center[1]:.6f} {est.solved_center[2]:.6f}")
        print(f"config: left={cfg.left} right={cfg.right} "
              f"top={cfg.top} bottom={cfg.bottom} (index {cfg.index})")
        print(f"agreement: {est.agreement:.6f}")
        print(f"residual_px: {est.residual:.6e}")
    return EXIT_OK


def _detect_one(frame, predictors, config):
    try:
        return detect_frame(frame, predictors, config)
    except ValueError as exc:
        print(f"frame {frame.frame_id} failed: {exc}", file=sys.stderr)
        return None


def _prepare_run(args):
    """Settings, output directory, frames, pipeline config and predictors
    of a detect or sweep run; echoes the settings into the output dir."""
    settings = _resolve_settings(args)
    output_dir = settings[("run", "output_dir")]
    if not output_dir:
        raise UsageError("--output-dir is required")
    frames = _load_frames(settings)
    config = _pipeline_config(settings)
    predictors = oracle_predictors(
        _oracle_config(settings), clusters=config.clusters, bins=config.bins
    )
    _echo_settings(settings, output_dir)
    return settings, output_dir, frames, config, predictors


def cmd_detect(args):
    settings, output_dir, frames, config, predictors = _prepare_run(args)
    det_dir = os.path.join(output_dir, "detections")
    os.makedirs(det_dir, exist_ok=True)
    per_frame = []
    n_failed = 0
    for frame in frames:
        dets = _detect_one(frame, predictors, config)
        if dets is None:
            # a failed frame detects nothing: its ground truths stay misses
            n_failed += 1
        else:
            write_detections(os.path.join(det_dir, frame.frame_id + ".txt"),
                             frame.frame_id, dets)
        per_frame.append((dets or [], frame.labels))
    stats = evaluate_detections(per_frame, _eval_config(settings))
    summary = (
        f"frames {len(per_frame)} tp {stats['tp']} fp {stats['fp']} "
        f"fn {stats['fn']} recall {stats['recall']:.6f} ap {stats['ap']:.6f} "
        f"failed {n_failed}"
    )
    print(summary)
    with open(os.path.join(output_dir, "summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(summary + "\n")
    if per_frame and n_failed == len(per_frame):
        return EXIT_DATA
    return EXIT_OK


def cmd_sweep(args):
    settings, output_dir, frames, config, predictors = _prepare_run(args)
    values = _parse_values(args.values)
    if args.kind == "scatter":
        rows = sweep_scatter(frames, predictors.monocular, values, config)
        path = os.path.join(output_dir, "sweep_scatter.csv")
        write_csv(path, ("s", "recall", "proposals_per_gt"), rows)
    elif args.kind == "objectness":
        rows = sweep_objectness(frames, predictors, values, config)
        path = os.path.join(output_dir, "sweep_objectness.csv")
        write_csv(path, ("threshold", "recall", "proposals_per_gt"), rows)
    else:
        metric = settings[("desync", "metric")]
        rows = desync_robustness_curve(
            frames, predictors, values, config, _eval_config(settings),
            metric=metric,
            n_seeds=settings[("desync", "seeds")],
            vertical_ratio=settings[("desync", "vertical_ratio")],
            seed=settings[("run", "seed")],
        )
        path = os.path.join(output_dir, "sweep_desync.csv")
        write_csv(path, ("discrepancy_m", metric), rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_fit_sizes(args):
    settings = _resolve_settings(args)
    frames = _load_frames(settings)
    labels = [lab for frame in frames for lab in frame.labels]
    clusters = fit_size_clusters(labels, args.clusters,
                                 seed=settings[("run", "seed")])
    save_size_clusters(clusters, args.output)
    print(f"clusters {clusters.n_clusters} sse {clusters.sse:.6f} "
          f"-> {args.output}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="cyldet",
                     description="Cylinder-region 3D detection geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--dataset-root", dest="dataset_root")
        p.add_argument("--split", dest="split",
                       help="split list file (path or name under the root)")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--seed", dest="seed", type=int)
        p.add_argument("--jobs", dest="jobs", type=int,
                       help="ignored: frames always run one at a time")
        p.add_argument("--mode", dest="mode", choices=PIPELINE_MODES)
        p.add_argument("--scatter-s", dest="scatter_s", type=float)
        p.add_argument("--scatter-stride", dest="scatter_stride", type=float)
        p.add_argument("--objectness-threshold", dest="objectness_threshold",
                       type=float)
        p.add_argument("--nms-threshold", dest="nms_threshold", type=float)
        p.add_argument("--dims-noise", dest="dims_noise", type=float)
        p.add_argument("--yaw-noise", dest="yaw_noise", type=float)
        p.add_argument("--center-noise", dest="center_noise", type=float)
        p.add_argument("--box2d-noise", dest="box2d_noise", type=float)
        p.add_argument("--radius", dest="radius", type=float)
        p.add_argument("--residual-cap", dest="residual_cap", type=float)
        p.add_argument("--size-clusters-file", dest="size_clusters_file")
        p.add_argument("--iou-threshold", dest="iou_threshold", type=float)
        p.add_argument("--difficulty", dest="difficulty",
                       choices=("easy", "moderate", "hard"))
        p.add_argument("--ap-mode", dest="ap_mode", choices=("r11", "r40"))
        p.add_argument("--match-metric", dest="match_metric",
                       choices=("iou_3d", "iou_bev"))

    p_solve = sub.add_parser("solve-pose",
                             help="solve one 3D pose from a 2D box")
    p_solve.add_argument("--calib", help="KITTI calibration file")
    p_solve.add_argument("--dataset-root", dest="dataset_root")
    p_solve.add_argument("--frame", help="frame id for calib lookup")
    p_solve.add_argument("--box2d", required=True,
                         help="xmin,ymin,xmax,ymax in pixels")
    p_solve.add_argument("--dims", required=True, help="W,H,L in meters")
    p_solve.add_argument("--yaw", required=True, type=float)
    p_solve.add_argument("--residual-cap", dest="residual_cap", type=float,
                         default=DEFAULT_RESIDUAL_CAP)
    p_solve.add_argument("--reduced", action="store_true",
                         help="use the reduced upright-box configuration search")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve_pose)

    p_detect = sub.add_parser("detect", help="run detection over a split")
    add_common(p_detect)
    p_detect.set_defaults(func=cmd_detect)

    p_sweep = sub.add_parser("sweep", help="scatter / objectness / desync sweeps")
    p_sweep.add_argument("kind", choices=("scatter", "objectness", "desync"))
    p_sweep.add_argument("--values", required=True,
                         help="comma list or start:stop:step (inclusive)")
    p_sweep.add_argument("--desync-metric", dest="desync_metric",
                         choices=("recall", "map"))
    p_sweep.add_argument("--desync-seeds", dest="desync_seeds", type=int)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit-sizes", help="k-means size clusters from labels")
    p_fit.add_argument("--clusters", type=int, required=True)
    p_fit.add_argument("--output", required=True)
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit_sizes)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FileNotFoundError, NoFeasibleConfiguration) as exc:
        # covers KittiFormatError, SingularSystem, InsufficientData, and
        # bad numeric inputs: all data problems, not internal errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
