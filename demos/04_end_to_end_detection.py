"""The full detection pipeline on a synthetic split, plus its file formats.

Ground-truth-backed oracle predictors stand in for trained networks, so
the whole geometric chain is exercised end to end: monocular seeding,
cylinder gathering, voxel downsampling, point sampling, recursive
refinement, confidence scoring, and BEV NMS.
"""

import os
import tempfile

import numpy as np

import cyldet
from cyldet import synthetic

# removed again when the demo ends
workdir = tempfile.TemporaryDirectory(prefix="cyldet_demo_")
root = os.path.join(workdir.name, "kitti")
frames = synthetic.make_frames(10, seed=7, cars_per_frame=(1, 5))
split = synthetic.write_dataset(root, frames)
print("wrote synthetic dataset:", root)

# reload through the KITTI parsers, exactly as a real dataset would load
loaded = list(cyldet.iter_split(split, root))
print("frames:", len(loaded), " cars:",
      sum(len(f.labels) for f in loaded), " points in frame 0:",
      len(loaded[0].cloud))

config = cyldet.PipelineConfig(mode="rpn_brn_brn", seed=0)
predictors = cyldet.oracle_predictors()  # zero noise: exact stand-ins

per_frame = []
for frame in loaded:
    detections = cyldet.detect_frame(frame, predictors, config)
    per_frame.append((detections, frame.labels))
    worst = min(
        (max(cyldet.iou_3d(d.box3d, lab.box3d) for d in detections)
         for lab in frame.labels),
        default=float("nan"),
    )
    print(f"frame {frame.frame_id}: {len(frame.labels)} cars -> "
          f"{len(detections)} detections, worst 3D IoU {worst:.4f}")

stats = cyldet.evaluate_detections(per_frame, cyldet.EvalConfig())
print(f"\nsplit summary: recall {stats['recall']:.3f}  AP {stats['ap']:.3f}  "
      f"fp {stats['fp']}")

# with imperfect predictors the picture degrades gracefully
noisy = cyldet.oracle_predictors(
    cyldet.OracleConfig(dims_noise_sigma=0.1, yaw_noise_sigma=0.1, rng_seed=1)
)
per_frame = [
    (cyldet.detect_frame(f, noisy, config), f.labels) for f in loaded
]
for threshold in (0.7, 0.5):
    stats = cyldet.evaluate_detections(
        per_frame, cyldet.EvalConfig(iou_threshold=threshold)
    )
    print(f"noisy oracles, IoU {threshold}: recall {stats['recall']:.3f}  "
          f"AP {stats['ap']:.3f}")

# the newline-delimited detection document round-trips
out = os.path.join(root, "detections_000000.txt")
cyldet.write_detections(out, loaded[0].frame_id, per_frame[0][0])
print("\ndetection document:")
with open(out) as fh:
    for line in fh:
        print(" ", line.strip()[:100], "...")
back = cyldet.read_detections(out)
print("parsed back:", len(back), "rows; first center",
      np.round(back[0][2].box3d.center, 3))
workdir.cleanup()
