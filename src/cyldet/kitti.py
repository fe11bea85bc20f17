"""KITTI-format ingestion: calibration, labels, Lidar scans, dataset splits.

File conventions handled here:
  calib/<id>.txt      "KEY: v0 v1 ..." lines; P2 (3x4), R0_rect (3x3),
                      Tr_velo_to_cam (3x4) are required.
  label_2/<id>.txt    15 whitespace fields per object: type, truncated,
                      occluded, alpha, 2D bbox (left top right bottom),
                      dimensions (h w l), location (x y z, bottom-face
                      center, camera frame), rotation_y.
  velodyne/<id>.bin   little-endian float32 (x, y, z, reflectance) records.

Internally a 3D box stores its geometric center; the bottom-face-center
shift happens only in box_to_fields / box_from_fields, which the label
and detection-document readers and writers share.  All loaded values are
immutable.

A whole frame's cloud is stored column-major, an F-contiguous (N, 4)
array: parse_velodyne transposes the float32 records once, and the two
frame transforms multiply the coordinate rows, returning the transpose
of a (4, N) result.  For input of either layout they give, bit for bit,
the row-major products xyz @ M.T.  PointCloud accepts any layout.

A frame may be loaded without its scan (load_frame's cloud=False), for
work that reads only calibration and labels; its cloud is then None.  The
scan must exist either way, so a split's completeness check is the same
for every caller.  parse_file reads every input file of the package and
parse_lines splits every line format, so an error keeps its type and
names its file and, in a line format, its line; a text file that is not
UTF-8 is a KittiFormatError.
"""

import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .geometry import Box2D, Box3D

DEFAULT_IMAGE_SIZE = (1242, 375)
DIFFICULTIES = ("easy", "moderate", "hard", "ignored")

_CALIB_KEYS = {"P2": (3, 4), "R0_rect": (3, 3), "Tr_velo_to_cam": (3, 4)}
_ORTHONORMAL_TOL = 1e-4
# the numeric fields of a label line, after its type
_LABEL_FIELDS = ("truncated", "occluded", "alpha", "left", "top", "right",
                 "bottom", "height", "width", "length", "x", "y", "z",
                 "rotation_y")


class KittiFormatError(ValueError):
    """Base class for malformed KITTI files; raised itself for any input
    file that is not UTF-8 text."""


class MissingKey(KittiFormatError):
    pass


class MalformedNumber(KittiFormatError):
    pass


class FieldCountMismatch(KittiFormatError):
    pass


class TruncatedRecord(KittiFormatError):
    pass


class WrongFrame(ValueError):
    """Point cloud is tagged with a different frame than the operation needs."""


class MissingFile(FileNotFoundError):
    pass


def _check_rotation(r, name):
    err = np.abs(r @ r.T - np.eye(3)).max()
    if err > _ORTHONORMAL_TOL:
        raise ValueError(f"{name} rotation not orthonormal (deviation {err:.2e})")


@dataclass(frozen=True)
class CalibrationSet:
    """Camera projection and Lidar-to-camera transform for one frame.

    p2 is the 3x4 left color camera projection; r0_rect the 3x3
    rectification rotation; tr_velo_to_cam the 3x4 rigid [R|t] mapping
    Lidar-frame points into the (unrectified) camera frame.
    """

    p2: np.ndarray
    r0_rect: np.ndarray
    tr_velo_to_cam: np.ndarray

    def __post_init__(self):
        p2 = np.asarray(self.p2, dtype=float).reshape(3, 4)
        r0 = np.asarray(self.r0_rect, dtype=float).reshape(3, 3)
        tr = np.asarray(self.tr_velo_to_cam, dtype=float).reshape(3, 4)
        if not np.all(np.isfinite(p2)):
            raise ValueError("P2 has non-finite entries")
        if p2[0, 0] == 0.0 or p2[1, 1] == 0.0:
            raise ValueError("P2 focal terms must be nonzero")
        _check_rotation(r0, "R0_rect")
        _check_rotation(tr[:, :3], "Tr_velo_to_cam")
        for name, arr in (("p2", p2), ("r0_rect", r0), ("tr_velo_to_cam", tr)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class GroundTruthLabel:
    class_name: str
    truncation: float
    occlusion: int
    alpha: float
    bbox2d: Box2D
    box3d: Box3D
    difficulty: str

    def __post_init__(self):
        if self.difficulty not in DIFFICULTIES:
            raise ValueError(f"unknown difficulty {self.difficulty!r}")


@dataclass(frozen=True)
class PointCloud:
    """(N, 4) array of x, y, z, reflectance plus the frame it lives in."""

    points: np.ndarray
    frame: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 4)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError("points must be an (N, 4) array of x, y, z, "
                             f"reflectance, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud has non-finite coordinates")
        if self.frame not in ("lidar", "camera"):
            raise ValueError(f"unknown frame tag {self.frame!r}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @property
    def xyz(self):
        return self.points[:, :3]


@dataclass(frozen=True)
class FrameData:
    """One frame's calibration, labels and camera-frame cloud; the cloud
    is None for a frame loaded without its scan."""

    frame_id: str
    calib: CalibrationSet
    labels: tuple
    cloud: PointCloud

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))


def _calibration_line(line):
    """(key, matrix) of a line that holds a required key, else None."""
    key, colon, payload = line.partition(":")
    key = key.strip()
    if not colon or key not in _CALIB_KEYS:
        return None
    rows, cols = _CALIB_KEYS[key]
    tokens = payload.split()
    if len(tokens) != rows * cols:
        raise FieldCountMismatch(
            f"key {key} expects {rows * cols} values, got {len(tokens)}")
    try:
        return key, np.array([float(t) for t in tokens]).reshape(rows, cols)
    except ValueError as exc:
        raise MalformedNumber(f"key {key}: {exc}") from None


def parse_calibration(text):
    """Parse KITTI calibration text into a CalibrationSet."""
    values = dict(parse_lines(text, _calibration_line))
    for key in _CALIB_KEYS:
        if key not in values:
            raise MissingKey(f"calibration key {key} not found")
    return CalibrationSet(values["P2"], values["R0_rect"], values["Tr_velo_to_cam"])


def emit_calibration(calib):
    """Render a CalibrationSet back to KITTI calibration text."""
    lines = []
    for key, arr in (
        ("P2", calib.p2),
        ("R0_rect", calib.r0_rect),
        ("Tr_velo_to_cam", calib.tr_velo_to_cam),
    ):
        lines.append(key + ": " + " ".join(repr(float(v)) for v in arr.ravel()))
    return "\n".join(lines) + "\n"


def assign_difficulty(bbox2d, occlusion, truncation):
    """KITTI difficulty stratum from 2D box height, occlusion, truncation."""
    height = bbox2d.height
    if height >= 40.0 and occlusion <= 0 and truncation <= 0.15:
        return "easy"
    if height >= 25.0 and occlusion <= 1 and truncation <= 0.30:
        return "moderate"
    if height >= 25.0 and occlusion <= 2 and truncation <= 0.50:
        return "hard"
    return "ignored"


def box_to_fields(box3d):
    """The 7 KITTI box fields of a Box3D: h w l, bottom-face-center x y z,
    yaw."""
    w, h, length = box3d.dims
    x, y, z = box3d.center
    return h, w, length, x, y + h / 2.0, z, box3d.yaw


def box_from_fields(fields):
    """Inverse of box_to_fields: a Box3D from its 7 KITTI box fields."""
    h, w, length, x, y_bottom, z, yaw = fields
    return Box3D((x, y_bottom - h / 2.0, z), (w, h, length), yaw)


def _label_line(line, classes):
    """The GroundTruthLabel of a line whose type classes admits, else None."""
    fields = line.split()
    if len(fields) != 15:
        raise FieldCountMismatch(f"expected 15 fields, got {len(fields)}")
    name = fields[0]
    if name == "DontCare" or (classes is not None and name not in classes):
        return None
    try:
        nums = [float(t) for t in fields[1:]]
    except ValueError as exc:
        raise MalformedNumber(str(exc)) from None
    for field, value in zip(_LABEL_FIELDS, nums):
        if not math.isfinite(value):
            raise MalformedNumber(f"{field} must be finite, got {value}")
    if not nums[1].is_integer():
        raise MalformedNumber(
            f"occluded must be a whole number, got {nums[1]}")
    truncation, occlusion, alpha = nums[0], int(nums[1]), nums[2]
    bbox = Box2D(*nums[3:7])
    return GroundTruthLabel(
        class_name=name,
        truncation=truncation,
        occlusion=occlusion,
        alpha=alpha,
        bbox2d=bbox,
        box3d=box_from_fields(nums[7:14]),
        difficulty=assign_difficulty(bbox, occlusion, truncation),
    )


def parse_labels(text, classes=("Car",)):
    """Parse KITTI label text into GroundTruthLabel objects.

    classes filters by object type; pass None to admit every class.
    "DontCare" rows carry no valid 3D box and are always dropped.  A
    number that is not finite, or an occlusion that is not whole, raises
    MalformedNumber naming its field; every error names its line.
    """
    return parse_lines(text, lambda line: _label_line(line, classes))


def emit_labels(labels):
    """Render labels back to KITTI 15-field text (bottom-face-center y)."""
    lines = []
    for lab in labels:
        b = lab.bbox2d
        fields = [lab.class_name, repr(lab.truncation), str(lab.occlusion)] + [
            repr(v) for v in (lab.alpha, b.xmin, b.ymin, b.xmax, b.ymax,
                              *box_to_fields(lab.box3d))
        ]
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_velodyne(data):
    """Decode a velodyne .bin byte string into a Lidar-frame PointCloud."""
    if len(data) % 16 != 0:
        raise TruncatedRecord(
            f"velodyne stream of {len(data)} bytes is not a multiple of 16"
        )
    records = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    return PointCloud(np.asfortranarray(records, dtype=float), frame="lidar")


def emit_velodyne(cloud):
    """Encode a Lidar-frame PointCloud as velodyne .bin bytes."""
    if cloud.frame != "lidar":
        raise WrongFrame(f"expected lidar frame, got {cloud.frame}")
    return np.ascontiguousarray(cloud.points, dtype="<f4").tobytes()


def _moved(cloud, first, shift, second, frame):
    """The column-major cloud of second @ (first @ xyz + shift) for every
    point, reflectance kept: two products on the coordinate rows."""
    rows = cloud.points.T
    ref = first @ rows[:3]
    ref += shift[:, None]
    # allocated after the temporary, so that the temporary's freed block
    # lies below the output, where the next frame's arrays reuse it; at the
    # heap top, glibc would return it to the system, and every loaded frame
    # would fault its pages in anew
    out = np.empty(rows.shape)
    np.matmul(second, ref, out=out[:3])
    out[3] = rows[3]
    return PointCloud(out.T, frame=frame)


def lidar_to_camera(cloud, calib):
    """Map a Lidar-frame cloud into the rectified camera frame."""
    if cloud.frame != "lidar":
        raise WrongFrame(f"expected lidar frame, got {cloud.frame}")
    tr = calib.tr_velo_to_cam
    return _moved(cloud, tr[:, :3], tr[:, 3], calib.r0_rect, "camera")


def camera_to_lidar(cloud, calib):
    """Inverse of lidar_to_camera."""
    if cloud.frame != "camera":
        raise WrongFrame(f"expected camera frame, got {cloud.frame}")
    tr = calib.tr_velo_to_cam
    # adding -t gives the bits of subtracting t
    return _moved(cloud, calib.r0_rect.T, -tr[:, 3], tr[:, :3].T, "lidar")


def parse_lines(text, parse_line):
    """parse_line of each stripped non-blank line of text, in order, less
    the None it returns for a line it skips.  A ValueError it raises keeps
    its type and gains "line {n}: ", counting every line from 1."""
    out = []
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            try:
                item = parse_line(line)
            except ValueError as exc:
                raise type(exc)(f"line {n}: {exc}") from None
            if item is not None:
                out.append(item)
    return out


def parse_file(path, parse, text=True):
    """parse of the file's contents, UTF-8 text unless text is False.  A
    ValueError it raises keeps its type, so that callers still tell the
    kinds apart, and gains the path; a text file that is not UTF-8 is a
    KittiFormatError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data.decode("utf-8") if text else data)
    except UnicodeDecodeError as exc:
        raise KittiFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_split_ids(list_path):
    """Frame ids from a split list file, one per line."""
    return parse_file(list_path, lambda text: parse_lines(text, str))


def load_frame(dataset_root, frame_id, cloud=True):
    """Load one frame, with its Car labels, from the {calib, label_2,
    velodyne} directory layout.  The Lidar scan is converted to the camera
    frame, so the whole downstream geometry shares one coordinate system.
    With cloud=False the scan is checked to exist but not read, and the
    frame's cloud is None."""
    paths = {
        "calib": os.path.join(dataset_root, "calib", frame_id + ".txt"),
        "label": os.path.join(dataset_root, "label_2", frame_id + ".txt"),
        "velodyne": os.path.join(dataset_root, "velodyne", frame_id + ".bin"),
    }
    for kind, path in paths.items():
        if not os.path.exists(path):
            raise MissingFile(f"frame {frame_id}: missing {kind} file {path}")
    calib = parse_file(paths["calib"], parse_calibration)
    labels = parse_file(paths["label"], parse_labels)
    camera = None
    if cloud:
        lidar = parse_file(paths["velodyne"], parse_velodyne, text=False)
        camera = lidar_to_camera(lidar, calib)
    return FrameData(
        frame_id=frame_id,
        calib=calib,
        labels=tuple(labels),
        cloud=camera,
    )


def iter_split(list_path, dataset_root, cloud=True):
    """The frames named in a split list file, in list order, each loaded
    when the caller reaches it; the list is read by this call, before any
    frame.  cloud as for load_frame."""
    return (load_frame(dataset_root, frame_id, cloud=cloud)
            for frame_id in read_split_ids(list_path))


def stable_id_hash(frame_id):
    """Deterministic 32-bit hash of a frame id, for seed derivation."""
    return zlib.crc32(str(frame_id).encode("utf-8"))
