"""Recall sweeps and the sensor-desynchronization experiment.

With a calibrated noisy oracle, widening the scatter range raises proposal
recall at a linear cost in proposals per object; raising the objectness
threshold trades recall for fewer proposals; and rigidly translating the
Lidar data against the camera-derived boxes degrades end-to-end recall.
"""

import os
import tempfile

import cyldet
from cyldet import synthetic

frames = synthetic.make_frames(20, seed=42, cars_per_frame=(1, 4))
config = cyldet.PipelineConfig()
noisy = cyldet.oracle_predictors(
    cyldet.OracleConfig(dims_noise_sigma=0.1, yaw_noise_sigma=0.1, rng_seed=3)
)

print("scatter sweep (size-deviation ratio s):")
rows = cyldet.sweep_scatter(frames, noisy.monocular,
                            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], config)
for s, recall, per_gt in rows:
    bar = "#" * int(40 * recall)
    print(f"  s={s:.2f}  recall {recall:.3f} {bar:<40s} "
          f"{per_gt:5.2f} seeds/object")

print("\nobjectness threshold sweep:")
rows = cyldet.sweep_objectness(
    frames, noisy, [0.05, 0.15, 0.25, 0.35, 0.45], config
)
for threshold, recall, per_gt in rows:
    print(f"  t={threshold:.2f}  recall {recall:.3f}  "
          f"{per_gt:5.2f} kept proposals/object")

print("\ndesynchronization (rigid Lidar-vs-camera translation):")
rows = cyldet.desync_robustness_curve(
    frames, noisy, [0.0, 0.2, 0.4, 0.6, 0.8], config,
    cyldet.EvalConfig(iou_threshold=0.5), metric="recall", n_seeds=3, seed=9,
)
for magnitude, recall in rows:
    bar = "#" * int(40 * recall)
    print(f"  discrepancy {magnitude:.1f} m  recall {recall:.3f} {bar}")

with tempfile.TemporaryDirectory(prefix="cyldet_sweeps_") as out_dir:
    path = os.path.join(out_dir, "desync.csv")
    cyldet.write_csv(path, ("discrepancy_m", "recall"), rows)
    print("\nCSV written to", path)
    with open(path) as fh:
        print(fh.read().strip())
