"""Synthetic desk-scale scenes in KITTI format.

Frames hold a handful of car boxes standing on a flat ground plane, a
point cloud sampled from the box surfaces plus ground clutter, and a
realistic camera calibration.  Scenes can stay in memory or be written
out as a KITTI directory tree (calib/, label_2/, velodyne/, split list),
which also exercises the emitters end to end.
"""

import math
import os

import numpy as np

from .geometry import BehindCamera, Box3D, project_box
from .kitti import (
    DEFAULT_IMAGE_SIZE,
    CalibrationSet,
    FrameData,
    GroundTruthLabel,
    PointCloud,
    assign_difficulty,
    camera_to_lidar,
    emit_calibration,
    emit_labels,
    emit_velodyne,
)

GROUND_Y = 1.55  # camera height above the road, meters (camera y points down)
FOCAL, CX, CY = 721.5377, 609.5593, 172.854  # camera 2 intrinsics, pixels
MIN_SPACING = 6.0  # least ground-plane distance between two car centers, m
POINTS_PER_CAR = 400  # surface points sampled on each car box
MAX_TRIES = 500    # car placements drawn per scene, kept or not
SPLIT_NAME = "synth"  # the split list is SPLIT_NAME.txt under the root


def _rotation_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def make_calibration():
    """KITTI-like calibration: camera 2 projection with a small stereo
    baseline term, a slightly non-identity rectification rotation, and the
    usual Lidar-to-camera axis permutation."""
    p2 = np.array(
        [
            [FOCAL, 0.0, CX, 44.857],
            [0.0, FOCAL, CY, 0.2163],
            [0.0, 0.0, 1.0, 2.746e-3],
        ]
    )
    r0 = _rotation_z(2.5e-3) @ np.array(
        [
            [math.cos(1.2e-3), 0.0, math.sin(1.2e-3)],
            [0.0, 1.0, 0.0],
            [-math.sin(1.2e-3), 0.0, math.cos(1.2e-3)],
        ]
    )
    tr = np.zeros((3, 4))
    tr[:, :3] = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    tr[:, 3] = (-0.002, -0.075, -0.272)
    return CalibrationSet(p2=p2, r0_rect=r0, tr_velo_to_cam=tr)


def sample_car_dims(rng):
    """(W, H, L) of a plausible car."""
    return (
        float(rng.uniform(1.5, 1.9)),
        float(rng.uniform(1.35, 1.75)),
        float(rng.uniform(3.4, 4.6)),
    )


def _box_fits_image(box, p, margin=4.0):
    try:
        b = project_box(box, p)
    except BehindCamera:
        return None
    w, h = DEFAULT_IMAGE_SIZE
    if b.xmin < margin or b.ymin < margin or b.xmax > w - margin or b.ymax > h - margin:
        return None
    return b


def make_scene_boxes(rng, n_cars, p, z_range=(8.0, 35.0)):
    """Non-overlapping car boxes on the ground plane, fully inside the
    image.  Returns (boxes, bbox2ds)."""
    boxes, rects = [], []
    tries = 0
    while len(boxes) < n_cars and tries < MAX_TRIES:
        tries += 1
        dims = sample_car_dims(rng)
        z = float(rng.uniform(*z_range))
        x = float(rng.uniform(-0.28, 0.28)) * z
        y = GROUND_Y - dims[1] / 2.0
        yaw = float(rng.uniform(-math.pi, math.pi))
        box = Box3D((x, y, z), dims, yaw)
        if any(
            math.hypot(box.center[0] - b.center[0], box.center[2] - b.center[2])
            < MIN_SPACING
            for b in boxes
        ):
            continue
        rect = _box_fits_image(box, p)
        if rect is None:
            continue
        boxes.append(box)
        rects.append(rect)
    return boxes, rects


def box_surface_points(box, n, rng):
    """n points uniform on the box surface, camera frame, shape (n, 3)."""
    w, h, length = box.dims
    areas = np.array([length * h, length * h, w * h, w * h, w * length, w * length])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    local = np.empty((n, 3))
    for face, axis, sign in ((0, 0, 1), (1, 0, -1), (2, 2, 1), (3, 2, -1),
                             (4, 1, 1), (5, 1, -1)):
        m = faces == face
        if not np.any(m):
            continue
        other = [a for a in range(3) if a != axis]
        local[m, axis] = 0.5 * sign
        local[m, other[0]] = u[m]
        local[m, other[1]] = v[m]
    local *= np.array([w, h, length])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return local @ rot.T + np.asarray(box.center)


def make_frame(frame_id, seed, n_cars=3, ground_points=2000,
               z_range=(8.0, 35.0)):
    """One synthetic frame with cars, surface + ground points, and labels
    whose 2D boxes are the exact tight projections of the 3D boxes."""
    rng = np.random.default_rng(seed)
    calib = make_calibration()
    boxes, rects = make_scene_boxes(rng, n_cars, calib.p2, z_range=z_range)
    labels = []
    clouds = []
    for box, rect in zip(boxes, rects):
        alpha = box.yaw - math.atan2(box.center[0], box.center[2])
        labels.append(
            GroundTruthLabel(
                class_name="Car",
                truncation=0.0,
                occlusion=0,
                alpha=alpha,
                bbox2d=rect,
                box3d=box,
                difficulty=assign_difficulty(rect, 0, 0.0),
            )
        )
        clouds.append(box_surface_points(box, POINTS_PER_CAR, rng))
    if ground_points:
        gx = rng.uniform(-25.0, 25.0, size=ground_points)
        gz = rng.uniform(4.0, 60.0, size=ground_points)
        gy = np.full(ground_points, GROUND_Y)
        clouds.append(np.column_stack([gx, gy, gz]))
    xyz = np.vstack(clouds) if clouds else np.zeros((0, 3))
    reflectance = rng.uniform(0.0, 1.0, size=len(xyz))
    cloud = PointCloud(np.column_stack([xyz, reflectance]), frame="camera")
    return FrameData(
        frame_id=str(frame_id),
        calib=calib,
        labels=tuple(labels),
        cloud=cloud,
    )


def make_frames(n_frames, seed, cars_per_frame=(1, 5), **kwargs):
    """List of frames with ids 000000..; car counts drawn per frame."""
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n_frames):
        n_cars = int(rng.integers(cars_per_frame[0], cars_per_frame[1] + 1))
        frames.append(
            make_frame(f"{i:06d}", seed=int(rng.integers(2**31)), n_cars=n_cars,
                       **kwargs)
        )
    return frames


def write_dataset(root, frames):
    """Write frames as a KITTI directory tree; returns the split list path."""
    for sub in ("calib", "label_2", "velodyne"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    ids = []
    for frame in frames:
        fid = frame.frame_id
        ids.append(fid)
        with open(os.path.join(root, "calib", fid + ".txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(emit_calibration(frame.calib))
        with open(os.path.join(root, "label_2", fid + ".txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(emit_labels(frame.labels))
        lidar = camera_to_lidar(frame.cloud, frame.calib)
        with open(os.path.join(root, "velodyne", fid + ".bin"), "wb") as fh:
            fh.write(emit_velodyne(lidar))
    split_path = os.path.join(root, SPLIT_NAME + ".txt")
    with open(split_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(ids) + "\n")
    return split_path
