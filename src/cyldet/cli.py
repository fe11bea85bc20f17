"""Command-line front end: pose solving, detection runs, sweeps, k-means.

Settings compose from three layers, later ones winning: built-in
defaults, an INI-style config file (sections per module), and command
line flags, all declared by one table (_SCHEMA); a config-file key
outside it is a usage error.  The dataset root additionally falls back
to the ROARNET_DATASET_ROOT environment variable.  Every run echoes its
effective configuration into the output directory, and every command
honors --seed for full determinism.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

import argparse
import configparser
import inspect
import json
import math
import os
import re
import sys
import traceback
from collections import namedtuple

from .codec import (
    ProposalRegion,
    RotationBins,
    check_cluster_count,
    fit_size_clusters,
    load_size_clusters,
    save_size_clusters,
)
from .evalbench import (
    AP_MODES,
    DESYNC_METRICS,
    EVAL_DIFFICULTIES,
    MATCH_METRICS,
    EvalConfig,
    check_sweep_values,
    desync_robustness_curve,
    evaluate_detections,
    sweep_objectness,
    sweep_scatter,
    write_csv,
)
from .geometry import Box2D
from .kitti import MissingFile, iter_split, parse_calibration, parse_file
from .mono import (
    DEFAULT_RESIDUAL_CAP,
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
# the most values a start:stop:step grid may hold
MAX_GRID_VALUES = 10_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_PIPELINE = PipelineConfig()
_ORACLE = OracleConfig()
_EVAL = EvalConfig()
_DESYNC = inspect.signature(desync_robustness_curve).parameters

# One row per setting: (section, key, cast, default, flag, choices, help).
# Every config-file key and every settings flag comes from this table;
# a flag's dest is its name without the dashes.  Defaults come from the
# config dataclasses and desync_robustness_curve; the size clusters file
# belongs to none of them.
_Setting = namedtuple("_Setting", "section key cast default flag choices help",
                      defaults=(None, None, None))
_SCHEMA = [_Setting(*row) for row in (
    ("run", "dataset_root", str, None, "--dataset-root"),
    ("run", "split", str, None, "--split", None,
     "split list file (path or name under the root)"),
    ("run", "output_dir", str, None, "--output-dir"),
    ("run", "mode", str, _PIPELINE.mode, "--mode", PIPELINE_MODES),
    ("run", "seed", int, _PIPELINE.seed, "--seed"),
    ("scatter", "s", float, _PIPELINE.scatter.s, "--scatter-s"),
    ("scatter", "stride", float, _PIPELINE.scatter.stride, "--scatter-stride"),
    ("thresholds", "objectness", float, _PIPELINE.objectness_threshold,
     "--objectness-threshold"),
    ("thresholds", "nms", float, _PIPELINE.nms_threshold, "--nms-threshold"),
    ("oracle", "dims_noise_sigma", float, _ORACLE.dims_noise_sigma,
     "--dims-noise"),
    ("oracle", "yaw_noise_sigma", float, _ORACLE.yaw_noise_sigma, "--yaw-noise"),
    ("oracle", "center_noise_sigma", float, _ORACLE.center_noise_sigma,
     "--center-noise"),
    ("oracle", "box2d_noise_sigma", float, _ORACLE.box2d_noise_sigma,
     "--box2d-noise"),
    ("pipeline", "radius", float, _PIPELINE.region.radius, "--radius"),
    ("pipeline", "y_min", float, _PIPELINE.region.y_extent[0]),
    ("pipeline", "y_max", float, _PIPELINE.region.y_extent[1]),
    ("pipeline", "bound", float, _PIPELINE.region.bounds[0]),
    ("pipeline", "voxel_resolution", float, _PIPELINE.voxel_resolution),
    ("pipeline", "sample_count", int, _PIPELINE.sample_count),
    ("pipeline", "residual_cap", float, _PIPELINE.residual_cap,
     "--residual-cap"),
    ("pipeline", "rotation_bins", int, _PIPELINE.bins.n_bins),
    ("pipeline", "size_clusters_file", str, "", "--size-clusters-file"),
    ("eval", "iou_threshold", float, _EVAL.iou_threshold, "--iou-threshold"),
    ("eval", "difficulty", str, _EVAL.difficulty, "--difficulty",
     EVAL_DIFFICULTIES),
    ("eval", "ap_mode", str, _EVAL.ap_mode, "--ap-mode", AP_MODES),
    ("eval", "match_metric", str, _EVAL.match_metric, "--match-metric",
     MATCH_METRICS),
    ("desync", "vertical_ratio", float, _DESYNC["vertical_ratio"].default),
    ("desync", "metric", str, _DESYNC["metric"].default, "--desync-metric",
     DESYNC_METRICS),
    ("desync", "seeds", int, _DESYNC["n_seeds"].default, "--desync-seeds"),
)]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError, and reads a number or comma list of numbers that
    starts with "-" (--dims -1.6,1.5,3.9) as a value, not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d[-+.,\deE]*$")

    def error(self, message):
        raise UsageError(message)


def _check_config_keys(cfg, path):
    """Usage error naming the first config-file key (DEFAULT section
    included) or empty section that is not in _SCHEMA."""
    known = {(row.section, row.key) for row in _SCHEMA}
    sections = {section for section, _ in known} | {cfg.default_section}
    for section in (cfg.default_section, *cfg.sections()):
        for key in cfg[section]:
            if (section, key) not in known:
                raise UsageError(f"unknown config key [{section}] {key} "
                                 f"in {path}")
        if section not in sections:
            raise UsageError(f"unknown config section [{section}] in {path}")


def _resolve_settings(args):
    """{section: {key: value}}: defaults, then the config file, then flags."""
    cfg = configparser.ConfigParser(interpolation=None)
    config_path = getattr(args, "config", None)
    if config_path:
        if not os.path.exists(config_path):
            raise MissingFile(f"config file {config_path} not found")
        parse_file(config_path,
                   lambda text: cfg.read_string(text, config_path))
        _check_config_keys(cfg, config_path)
    settings = {}
    for row in _SCHEMA:
        value = row.default
        if cfg.has_option(row.section, row.key):
            text = cfg.get(row.section, row.key)
            try:
                value = row.cast(text)
            except ValueError:  # only the int and float casts can fail
                kind = "an int" if row.cast is int else "a float"
                raise UsageError(f"[{row.section}] {row.key} must be {kind}, "
                                 f"got {text!r}") from None
            if row.choices and value not in row.choices:
                raise UsageError(f"[{row.section}] {row.key} must be one of "
                                 f"{row.choices}, got {value!r}")
        dest = row.flag and row.flag[2:].replace("-", "_")
        if dest and getattr(args, dest, None) is not None:
            value = getattr(args, dest)
        settings.setdefault(row.section, {})[row.key] = value
    if settings["run"]["dataset_root"] is None:
        settings["run"]["dataset_root"] = os.environ.get(ENV_DATASET_ROOT)
    return settings


def _echo_settings(settings, output_dir):
    echo = configparser.ConfigParser(interpolation=None)
    for section, values in settings.items():
        echo[section] = {key: "" if value is None else value
                         for key, value in values.items()}
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, "config_effective.ini"), "w",
              encoding="utf-8") as fh:
        echo.write(fh)


def _pipeline_config(settings):
    # the [scatter] keys are ScatterParams' fields; the other keys differ
    # from PipelineConfig's
    pipe = settings["pipeline"]
    path = pipe["size_clusters_file"]
    return PipelineConfig(
        scatter=ScatterParams(**settings["scatter"]),
        mode=settings["run"]["mode"],
        objectness_threshold=settings["thresholds"]["objectness"],
        nms_threshold=settings["thresholds"]["nms"],
        region=ProposalRegion((0.0, 0.0, 0.0), pipe["radius"],
                              (pipe["y_min"], pipe["y_max"]),
                              (pipe["bound"],) * 3),
        voxel_resolution=pipe["voxel_resolution"],
        sample_count=pipe["sample_count"],
        residual_cap=pipe["residual_cap"],
        clusters=load_size_clusters(path) if path else DEFAULT_SIZE_CLUSTERS,
        bins=RotationBins(pipe["rotation_bins"]),
        seed=settings["run"]["seed"],
    )


def _load_frames(settings, cloud=True):
    """The split's frames, loaded one at a time as the caller reads them.
    With cloud=False each frame reads no point cloud (its cloud is None),
    for a command whose output depends on calibration and labels alone;
    every frame file must still exist."""
    root = settings["run"]["dataset_root"]
    split = settings["run"]["split"]
    if not root or not split:
        raise UsageError("--dataset-root and --split are required "
                         f"(or set {ENV_DATASET_ROOT})")
    split_path = split if os.path.exists(split) else os.path.join(root, split)
    if not os.path.exists(split_path):
        raise MissingFile(f"split list {split} not found")
    return iter_split(split_path, root, cloud=cloud)


def _parse_float(token):
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"{token.strip()!r} is not a number") from None


def _parse_floats(text):
    return [_parse_float(t) for t in text.split(",") if t.strip()]


def _parse_values(text):
    """Grid spec: either 'start:stop:step' (inclusive) or a comma list.
    A grid that holds no value, or a range of more than MAX_GRID_VALUES,
    is a usage error."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad range spec {text!r}, want start:stop:step")
        start, stop, step = (_parse_float(p) for p in parts)
        # negated, so that NaN is rejected too
        if not step > 0:
            raise UsageError("range step must be positive")
        if math.isinf(start) or math.isinf(stop):
            raise UsageError("range start and stop must be finite")
        # counted before the loop builds it, so that a step tiny against
        # the span fails at once rather than when memory runs out
        if (stop - start) / step >= MAX_GRID_VALUES:
            raise UsageError(f"range {text!r} holds more than "
                             f"{MAX_GRID_VALUES} values at step {step!r}")
        values = []
        v = start
        while v <= stop + 1e-9:
            values.append(round(v, 10))
            if v + step == v:
                raise UsageError(f"range step {step!r} is too small to "
                                 f"advance from {v!r}")
            v += step
    else:
        values = _parse_floats(text)
    if not values:
        raise UsageError(f"value grid {text!r} is empty")
    return values


def cmd_solve_pose(args):
    coords = _parse_floats(args.box2d)
    dims = _parse_floats(args.dims)
    if len(coords) != 4 or len(dims) != 3:
        raise UsageError("--box2d needs 4 values and --dims needs 3")
    if args.calib:
        path = args.calib
    elif args.dataset_root and args.frame:
        path = os.path.join(args.dataset_root, "calib", args.frame + ".txt")
        if not os.path.exists(path):
            raise MissingFile(f"calib file {path} not found")
    else:
        raise UsageError("provide --calib FILE or --dataset-root with --frame")
    calib = parse_file(path, parse_calibration)
    box2d = Box2D(*coords)
    est = geometric_agreement_search(box2d, tuple(dims), args.yaw, calib.p2,
                                     residual_cap=args.residual_cap)
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


def _prepare_run(args, cloud=True):
    """Settings, output directory, frames, pipeline config, predictors and
    eval config of a detect or sweep run, echoed once all are checked;
    cloud as for _load_frames."""
    settings = _resolve_settings(args)
    output_dir = settings["run"]["output_dir"]
    if not output_dir:
        raise UsageError("--output-dir is required")
    ratio = settings["desync"]["vertical_ratio"]
    if not 0.0 <= ratio < math.inf:  # negated, so that NaN fails too
        raise ValueError("[desync] vertical_ratio must be finite and >= 0, "
                         f"got {ratio!r}")
    seeds = settings["desync"]["seeds"]
    if seeds < 1:
        raise ValueError(f"[desync] seeds must be >= 1, got {seeds!r}")
    frames = _load_frames(settings, cloud=cloud)
    config = _pipeline_config(settings)
    # the [oracle] and [eval] keys are the fields of their config classes
    oracle = OracleConfig(**settings["oracle"], rng_seed=config.seed)
    predictors = oracle_predictors(oracle, clusters=config.clusters,
                                   bins=config.bins)
    evaluation = EvalConfig(**settings["eval"])
    _echo_settings(settings, output_dir)
    return settings, output_dir, frames, config, predictors, evaluation


def cmd_detect(args):
    """Detect, write and evaluate each frame of the split as it finishes
    (evaluate_detections reads a generator), then write summary.txt.
    Exits 2 when every frame failed."""
    _, output_dir, frames, config, predictors, evaluation = _prepare_run(args)
    det_dir = os.path.join(output_dir, "detections")
    os.makedirs(det_dir, exist_ok=True)
    n_frames = n_failed = 0

    def detected():
        nonlocal n_frames, n_failed
        for frame in frames:
            path = os.path.join(det_dir, frame.frame_id + ".txt")
            n_frames += 1
            try:
                dets = detect_frame(frame, predictors, config)
            except ValueError as exc:
                # a failed frame detects nothing: its ground truths stay
                # misses, and no earlier run's document may claim otherwise
                print(f"frame {frame.frame_id} failed: {exc}", file=sys.stderr)
                n_failed += 1
                dets = []
                if os.path.exists(path):
                    os.remove(path)
            else:
                write_detections(path, frame.frame_id, dets)
            yield dets, frame.labels

    stats = evaluate_detections(detected(), evaluation)
    summary = (
        f"frames {n_frames} tp {stats['tp']} fp {stats['fp']} "
        f"fn {stats['fn']} recall {stats['recall']:.6f} ap {stats['ap']:.6f} "
        f"failed {n_failed}"
    )
    print(summary)
    with open(os.path.join(output_dir, "summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(summary + "\n")
    if n_frames and n_failed == n_frames:
        return EXIT_DATA
    return EXIT_OK


def cmd_sweep(args):
    try:
        values = check_sweep_values(args.kind, _parse_values(args.values))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # the scatter sweep solves poses from labels and calibration alone
    settings, output_dir, frames, config, predictors, evaluation = (
        _prepare_run(args, cloud=args.kind != "scatter"))
    if args.kind == "scatter":
        rows = sweep_scatter(frames, predictors.monocular, values, config)
        path = os.path.join(output_dir, "sweep_scatter.csv")
        write_csv(path, ("s", "recall", "proposals_per_gt"), rows)
    elif args.kind == "objectness":
        rows = sweep_objectness(frames, predictors, values, config)
        path = os.path.join(output_dir, "sweep_objectness.csv")
        write_csv(path, ("threshold", "recall", "proposals_per_gt"), rows)
    else:
        desync = settings["desync"]
        rows = desync_robustness_curve(
            frames, predictors, values, config, evaluation,
            metric=desync["metric"], n_seeds=desync["seeds"],
            vertical_ratio=desync["vertical_ratio"], seed=config.seed,
        )
        path = os.path.join(output_dir, "sweep_desync.csv")
        write_csv(path, ("discrepancy_m", desync["metric"]), rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_fit_sizes(args):
    settings = _resolve_settings(args)
    check_cluster_count(args.clusters)
    frames = _load_frames(settings, cloud=False)
    labels = [lab for frame in frames for lab in frame.labels]
    clusters = fit_size_clusters(labels, args.clusters,
                                 seed=settings["run"]["seed"])
    save_size_clusters(clusters, args.output)
    print(f"clusters {clusters.n_clusters} sse {clusters.sse:.6f} "
          f"-> {args.output}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="cyldet",
                     description="Cylinder-region 3D detection geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings(p, keep):
        """--config and the flag of each _SCHEMA row that keep admits."""
        p.add_argument("--config", help="INI config file; flags override it")
        for row in _SCHEMA:
            if row.flag and keep(row):
                p.add_argument(row.flag, choices=row.choices, help=row.help,
                               type=None if row.cast is str else row.cast)

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
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve_pose)

    p_detect = sub.add_parser("detect", help="run detection over a split")
    add_settings(p_detect, lambda row: row.section != "desync")
    p_detect.add_argument("--jobs", dest="jobs", type=int,
                          help="ignored: frames always run one at a time")
    p_detect.set_defaults(func=cmd_detect)

    p_sweep = sub.add_parser("sweep", help="scatter / objectness / desync sweeps")
    p_sweep.add_argument("kind", choices=("scatter", "objectness", "desync"))
    p_sweep.add_argument("--values", required=True,
                         help="comma list or start:stop:step (inclusive)")
    add_settings(p_sweep, lambda row: True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit-sizes", help="k-means size clusters from labels")
    p_fit.add_argument("--clusters", type=int, required=True)
    p_fit.add_argument("--output", required=True)
    add_settings(p_fit, lambda row: row.key in ("dataset_root", "split",
                                                "seed"))
    p_fit.set_defaults(func=cmd_fit_sizes)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, configparser.Error) as exc:
        # a configparser.Error is a config file that does not parse
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FileNotFoundError) as exc:
        # every data problem is a ValueError (KittiFormatError, a pose
        # that cannot be solved, InsufficientData, bad numeric inputs)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
