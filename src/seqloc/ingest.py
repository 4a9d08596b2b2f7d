"""Dataset model and text formats for posed query sequences and reference images.

Directory layout (all files CSV with a header row):

    queries/poses.csv            frame_id,camera_id,qw,qx,qy,qz,tx,ty,tz
    queries/intrinsics.csv       camera_id,fx,fy,cx,cy,width,height
    queries/keypoints/<id>.csv   idx,u,v
    queries/descriptors/<id>.csv idx,d0,...,d{D-1}          (optional)
    queries/global_descriptors.csv  frame_id,g0,...,g{G-1}  (optional)
    queries/point_ids/<id>.csv   idx,point_id               (optional, synthetic data)
    queries/odometry_covariance.csv  36 values, row-major 6x6 (optional)
    references/...               same structure, poses in the global frame
    references/geo.csv           frame_id,lat,lon,alt,heading_deg (optional pose source)
    rig_extrinsics.csv           rig_id,camera_id,qw,qx,qy,qz,tx,ty,tz (optional)
    matches/<A>__<B>.csv         idxA,idxB,score            (optional, precomputed)

Query poses are odometry T(q<-frame); reference poses are global T(r<-frame).
Multi-camera rig captures name their frames "<instance>/<camera_id>"; plain ids
are treated as single-camera rigs. Frame instance ids must sort temporally.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, Pose, Quaternion

log = logging.getLogger(__name__)

# Default odometry covariance when the device provides none: short-horizon VIO
# drift of 1 cm / 0.5 deg per axis per step.
DEFAULT_SIGMA_T_M = 0.01
DEFAULT_SIGMA_R_DEG = 0.5


class DatasetError(Exception):
    """Base class; carries the file and record that failed."""

    def __init__(self, message: str, path=None, record=None):
        locus = ""
        if path is not None:
            locus = f" [{path}" + (f":{record}" if record is not None else "") + "]"
        super().__init__(message + locus)
        self.path = path
        self.record = record


class MissingFileError(DatasetError):
    pass


class MalformedRecordError(DatasetError):
    pass


class InvariantError(DatasetError):
    pass


@dataclass
class Frame:
    """One image capture: intrinsics, keypoints and optional descriptors."""

    frame_id: str
    camera_id: str
    intrinsics: CameraIntrinsics
    pose: Pose | None = None
    keypoints: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    descriptors: np.ndarray | None = None
    global_descriptor: np.ndarray | None = None
    point_ids: np.ndarray | None = None

    @property
    def instance_id(self) -> str:
        """Rig-instance part of the frame id ("inst/cam" -> "inst")."""
        return self.frame_id.rsplit("/", 1)[0] if "/" in self.frame_id else self.frame_id


@dataclass
class Rig:
    """A capture instant: one frame per camera, one odometry pose for the unit."""

    rig_id: str
    cameras: list[tuple[str, Pose]]  # (camera_id, T(rig<-cam))
    frames: dict[str, Frame]
    pose: Pose | None = None  # odometry T(q<-rig)

    def camera_pose(self, camera_id: str) -> Pose:
        """Odometry pose of one camera: T(q<-cam) = T(q<-rig) * T(rig<-cam)."""
        for cid, extr in self.cameras:
            if cid == camera_id:
                return self.pose.compose(extr)
        raise KeyError(camera_id)

    def extrinsic(self, camera_id: str) -> Pose:
        for cid, extr in self.cameras:
            if cid == camera_id:
                return extr
        raise KeyError(camera_id)


@dataclass
class QuerySequence:
    """Ordered rigs with odometry poses and a shared 6x6 odometry covariance."""

    rigs: list[Rig]
    covariance: np.ndarray = field(
        default_factory=lambda: default_odometry_covariance()
    )

    def __len__(self) -> int:
        return len(self.rigs)


def default_odometry_covariance(
    sigma_t_m: float = DEFAULT_SIGMA_T_M, sigma_r_deg: float = DEFAULT_SIGMA_R_DEG
) -> np.ndarray:
    sr = math.radians(sigma_r_deg)
    return np.diag([sigma_t_m**2] * 3 + [sr**2] * 3)


# --- low-level csv helpers ----------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _read_rows(path: Path, expected_header=None) -> list[dict]:
    if not path.is_file():
        raise MissingFileError("required file missing", path=path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRecordError("empty file, header expected", path=path)
        header = [h.strip() for h in header]
        if len(set(header)) != len(header) or "_line" in header:
            raise MalformedRecordError(
                f"header {header} repeats a column name or uses '_line'", path=path, record=1
            )
        if expected_header is not None and header[: len(expected_header)] != list(
            expected_header
        ):
            raise MalformedRecordError(
                f"header {header} does not start with {list(expected_header)}",
                path=path,
                record=1,
            )
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(header):
                raise MalformedRecordError(
                    f"expected {len(header)} fields, got {len(raw)}",
                    path=path,
                    record=lineno,
                )
            rows.append({"_line": lineno, **dict(zip(header, (c.strip() for c in raw)))})
    return rows


def _parse_float(row: dict, key: str, path: Path):
    try:
        v = float(row[key])
    except (KeyError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise MalformedRecordError(
            f"field {key!r} is not a finite number", path=path, record=row.get("_line")
        )
    return v


def _parse_pose_fields(row: dict, path: Path) -> Pose | None:
    keys = ("qw", "qx", "qy", "qz", "tx", "ty", "tz")
    if all(row.get(k, "") == "" for k in keys):
        return None
    vals = [_parse_float(row, k, path) for k in keys]
    try:
        return Pose(Quaternion(*vals[:4]), vals[4:])
    except ValueError as e:
        raise MalformedRecordError(str(e), path=path, record=row.get("_line"))


def write_pose_csv(path: Path, rows: list[tuple[str, str, Pose]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame_id", "camera_id", "qw", "qx", "qy", "qz", "tx", "ty", "tz"])
        for frame_id, camera_id, pose in rows:
            w.writerow([frame_id, camera_id] + [_fmt(v) for v in pose.as_array7()])


def read_match_file(path: Path) -> list[tuple[int, int, float]]:
    rows = _read_rows(path, expected_header=("idxA", "idxB", "score"))
    out = []
    for r in rows:
        try:
            out.append((int(r["idxA"]), int(r["idxB"]), float(r["score"])))
        except ValueError:
            raise MalformedRecordError("bad match row", path=path, record=r["_line"])
    return out


def write_match_file(path: Path, rows: list[tuple[int, int, float]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["idxA", "idxB", "score"])
        for ia, ib, s in rows:
            w.writerow([ia, ib, _fmt(s)])


def match_file_path(root: Path, frame_a: str, frame_b: str) -> Path:
    safe = lambda s: s.replace("/", "+")
    return Path(root) / "matches" / f"{safe(frame_a)}__{safe(frame_b)}.csv"


# --- loading ------------------------------------------------------------------


def _load_intrinsics(side: Path) -> dict[str, CameraIntrinsics]:
    path = side / "intrinsics.csv"
    rows = _read_rows(path, expected_header=("camera_id",))
    out = {}
    for r in rows:
        try:
            intr = CameraIntrinsics(
                fx=_parse_float(r, "fx", path),
                fy=_parse_float(r, "fy", path),
                cx=_parse_float(r, "cx", path),
                cy=_parse_float(r, "cy", path),
                width=int(_parse_float(r, "width", path)),
                height=int(_parse_float(r, "height", path)),
            )
        except ValueError as e:
            raise InvariantError(str(e), path=path, record=r["_line"])
        out[r["camera_id"]] = intr
    return out


def _keypoint_indices(rows: list[dict], path: Path) -> list[int]:
    """The idx column of a per-keypoint file: each row a distinct integer in [0, n)."""
    n = len(rows)
    seen = [False] * n
    out = []
    for r in rows:
        try:
            i = int(r["idx"])
        except ValueError:
            raise MalformedRecordError(
                f"idx {r['idx']!r} is not an integer", path=path, record=r["_line"]
            )
        if not 0 <= i < n:
            raise MalformedRecordError(
                f"idx {i} outside [0, {n})", path=path, record=r["_line"]
            )
        if seen[i]:
            raise MalformedRecordError(f"idx {i} repeated", path=path, record=r["_line"])
        seen[i] = True
        out.append(i)
    return out


def _load_keypoints(side: Path, frame: Frame) -> None:
    path = side / "keypoints" / f"{frame.frame_id.replace('/', '+')}.csv"
    if not path.is_file():
        return
    rows = _read_rows(path, expected_header=("idx", "u", "v"))
    kps = np.zeros((len(rows), 2))
    for i, r in zip(_keypoint_indices(rows, path), rows):
        u, v = _parse_float(r, "u", path), _parse_float(r, "v", path)
        if not (0 <= u < frame.intrinsics.width and 0 <= v < frame.intrinsics.height):
            raise InvariantError(
                f"keypoint ({u}, {v}) outside image bounds of {frame.frame_id}",
                path=path,
                record=r["_line"],
            )
        kps[i] = (u, v)
    frame.keypoints = kps


def _load_vector_table(path: Path) -> dict[str, np.ndarray]:
    """frame_id,v0,...  -> id -> vector; dimensionality read from the header."""
    rows = _read_rows(path)
    out = {}
    for r in rows:
        vals = [v for k, v in r.items() if k not in ("_line", "frame_id")]
        try:
            out[r["frame_id"]] = np.array([float(v) for v in vals])
        except ValueError:
            raise MalformedRecordError("bad vector row", path=path, record=r["_line"])
    return out


def _load_descriptors(side: Path, frame: Frame) -> None:
    path = side / "descriptors" / f"{frame.frame_id.replace('/', '+')}.csv"
    if not path.is_file():
        return
    rows = _read_rows(path, expected_header=("idx",))
    if len(rows) != len(frame.keypoints):
        raise InvariantError(
            f"{len(rows)} descriptors for {len(frame.keypoints)} keypoints"
            f" in {frame.frame_id}",
            path=path,
        )
    dim = len(rows[0]) - 2 if rows else 0
    desc = np.zeros((len(rows), dim))
    order = _keypoint_indices(rows, path)
    for i, r in zip(order, rows):
        vals = [v for k, v in r.items() if k not in ("_line", "idx")]
        try:
            desc[i] = [float(v) for v in vals]
        except ValueError:
            raise MalformedRecordError(
                "descriptor value is not a number", path=path, record=r["_line"]
            )
    finite = np.isfinite(desc).all(axis=1)
    if not finite.all():
        r = rows[order.index(int(np.argmin(finite)))]
        raise MalformedRecordError(
            "descriptor value is not finite", path=path, record=r["_line"]
        )
    frame.descriptors = desc


def _load_point_ids(side: Path, frame: Frame) -> None:
    path = side / "point_ids" / f"{frame.frame_id.replace('/', '+')}.csv"
    if not path.is_file():
        return
    rows = _read_rows(path, expected_header=("idx", "point_id"))
    if len(rows) != len(frame.keypoints):
        raise InvariantError(
            f"{len(rows)} point ids for {len(frame.keypoints)} keypoints",
            path=path,
        )
    ids = np.zeros(len(rows), dtype=int)
    for i, r in zip(_keypoint_indices(rows, path), rows):
        try:
            ids[i] = int(r["point_id"])
        except (ValueError, OverflowError):
            raise MalformedRecordError(
                f"point_id {r['point_id']!r} is not a 64-bit integer",
                path=path,
                record=r["_line"],
            )
    frame.point_ids = ids


def _load_side(side: Path, *, query_side: bool) -> list[Frame]:
    intrinsics = _load_intrinsics(side)
    poses_path = side / "poses.csv"
    geo_path = side / "geo.csv"
    frames: list[Frame] = []

    if poses_path.is_file():
        rows = _read_rows(poses_path, expected_header=("frame_id", "camera_id"))
        for r in rows:
            cam = r["camera_id"]
            if cam not in intrinsics:
                raise InvariantError(
                    f"camera_id {cam!r} not in intrinsics.csv",
                    path=poses_path,
                    record=r["_line"],
                )
            frames.append(
                Frame(
                    frame_id=r["frame_id"],
                    camera_id=cam,
                    intrinsics=intrinsics[cam],
                    pose=_parse_pose_fields(r, poses_path),
                )
            )
    elif not query_side and geo_path.is_file():
        frames = _frames_from_geo(geo_path, intrinsics)
    else:
        raise MissingFileError("required file missing", path=poses_path)

    seen = set()
    for f in frames:
        if f.frame_id in seen:
            raise InvariantError(f"duplicate frame_id {f.frame_id!r}", path=poses_path)
        seen.add(f.frame_id)

    gd_path = side / "global_descriptors.csv"
    global_descs = _load_vector_table(gd_path) if gd_path.is_file() else {}
    for f in frames:
        _load_keypoints(side, f)
        _load_descriptors(side, f)
        _load_point_ids(side, f)
        g = global_descs.get(f.frame_id)
        if g is not None:
            n = np.linalg.norm(g)
            if abs(n - 1.0) > 1e-3:
                raise InvariantError(
                    f"global descriptor of {f.frame_id} has norm {n:.4f}", path=gd_path
                )
            f.global_descriptor = g / n
    return frames


def _frames_from_geo(path: Path, intrinsics: dict[str, CameraIntrinsics]) -> list[Frame]:
    """Build reference poses from geodetic records about the first record's origin."""
    rows = _read_rows(path, expected_header=("frame_id",))
    if not rows:
        raise InvariantError("geo.csv has no records", path=path)
    if len(intrinsics) != 1:
        raise InvariantError(
            "geo.csv pose source requires exactly one camera in intrinsics.csv",
            path=path,
        )
    camera_id, intr = next(iter(intrinsics.items()))
    origin = (
        _parse_float(rows[0], "lat", path),
        _parse_float(rows[0], "lon", path),
        _parse_float(rows[0], "alt", path),
    )
    frames = []
    for r in rows:
        enu = geodetic_to_local(
            _parse_float(r, "lat", path),
            _parse_float(r, "lon", path),
            _parse_float(r, "alt", path),
            origin,
        )
        heading = math.radians(_parse_float(r, "heading_deg", path))
        # Camera +z along the compass heading, +y down: columns are the camera
        # axes expressed in ENU.
        R = np.array(
            [
                [math.cos(heading), 0.0, math.sin(heading)],
                [-math.sin(heading), 0.0, math.cos(heading)],
                [0.0, -1.0, 0.0],
            ]
        )
        frames.append(
            Frame(
                frame_id=r["frame_id"],
                camera_id=camera_id,
                intrinsics=intr,
                pose=Pose.from_rt(R, enu),
            )
        )
    return frames


def _load_rig_definitions(root: Path) -> list[tuple[str, list[tuple[str, Pose]]]]:
    path = root / "rig_extrinsics.csv"
    if not path.is_file():
        return []
    rows = _read_rows(path, expected_header=("rig_id", "camera_id"))
    rigs: dict[str, list[tuple[str, Pose]]] = {}
    for r in rows:
        pose = _parse_pose_fields(r, path)
        if pose is None:
            raise InvariantError(
                f"extrinsic missing for rig {r['rig_id']!r} camera {r['camera_id']!r}",
                path=path,
                record=r["_line"],
            )
        rigs.setdefault(r["rig_id"], []).append((r["camera_id"], pose))
    return list(rigs.items())


def _group_into_rigs(frames: list[Frame], rig_defs, poses_path) -> list[Rig]:
    by_instance: dict[str, list[Frame]] = {}
    order: list[str] = []
    for f in frames:
        if f.instance_id not in by_instance:
            order.append(f.instance_id)
        by_instance.setdefault(f.instance_id, []).append(f)
    if order != sorted(order):
        raise InvariantError(
            "query frame instances are not in increasing order", path=poses_path
        )

    rigs = []
    for inst in order:
        members = by_instance[inst]
        cam_ids = {f.camera_id for f in members}
        if len(cam_ids) != len(members):
            raise InvariantError(
                f"rig instance {inst!r} repeats a camera", path=poses_path
            )
        if len(members) == 1 and "/" not in members[0].frame_id:
            cams = [(members[0].camera_id, Pose.identity())]
        else:
            matches = [d for d in rig_defs if {c for c, _ in d[1]} == cam_ids]
            if not matches:
                raise InvariantError(
                    f"no rig definition covers cameras {sorted(cam_ids)} of {inst!r}",
                    path=poses_path,
                )
            cams = matches[0][1]
        for f in members:
            if f.pose is None:
                raise InvariantError(
                    f"query frame {f.frame_id!r} is missing its odometry pose",
                    path=poses_path,
                )
        first = members[0]
        extr = dict(cams)[first.camera_id]
        rig_pose = first.pose.compose(extr.inverse())
        rigs.append(
            Rig(
                rig_id=inst,
                cameras=cams,
                frames={f.camera_id: f for f in members},
                pose=rig_pose,
            )
        )
    return rigs


def _load_covariance(side: Path) -> np.ndarray:
    path = side / "odometry_covariance.csv"
    if not path.is_file():
        return default_odometry_covariance()
    try:
        vals = np.loadtxt(path, delimiter=",").reshape(-1)
    except ValueError as e:
        raise MalformedRecordError(f"bad covariance value: {e}", path=path)
    if not np.all(np.isfinite(vals)):
        raise MalformedRecordError("covariance value is not finite", path=path)
    if vals.size != 36:
        raise MalformedRecordError(
            f"expected 36 covariance values, got {vals.size}", path=path
        )
    cov = vals.reshape(6, 6)
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise InvariantError("odometry covariance is not symmetric", path=path)
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise InvariantError("odometry covariance is not positive definite", path=path)
    return cov


def load_dataset(root) -> tuple[list[QuerySequence], list[Frame]]:
    """Load one dataset directory; returns (query sequences, reference frames)."""
    root = Path(root)
    if not root.is_dir():
        raise MissingFileError("dataset directory does not exist", path=root)

    ref_dir = root / "references"
    if not (ref_dir / "poses.csv").is_file() and not (ref_dir / "geo.csv").is_file():
        raise InvariantError("no reference frames", path=ref_dir)
    references = _load_side(ref_dir, query_side=False)
    if not references:
        raise InvariantError("no reference frames", path=ref_dir)
    for f in references:
        if f.pose is None:
            raise InvariantError(
                f"reference frame {f.frame_id!r} has no pose",
                path=root / "references" / "poses.csv",
            )

    query_frames = _load_side(root / "queries", query_side=True)
    rig_defs = _load_rig_definitions(root)
    rigs = _group_into_rigs(query_frames, rig_defs, root / "queries" / "poses.csv")
    sequence = QuerySequence(rigs=rigs, covariance=_load_covariance(root / "queries"))
    return [sequence], references


# --- saving -------------------------------------------------------------------


def save_dataset(
    root,
    sequence: QuerySequence,
    references: list[Frame],
    rig_defs: list[tuple[str, list[tuple[str, Pose]]]] | None = None,
) -> None:
    root = Path(root)
    for side_name, frames in (
        ("queries", [f for r in sequence.rigs for f in r.frames.values()]),
        ("references", references),
    ):
        side = root / side_name
        (side / "keypoints").mkdir(parents=True, exist_ok=True)
        write_pose_csv(
            side / "poses.csv", [(f.frame_id, f.camera_id, f.pose) for f in frames]
        )
        cams = {}
        for f in frames:
            cams[f.camera_id] = f.intrinsics
        with open(side / "intrinsics.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["camera_id", "fx", "fy", "cx", "cy", "width", "height"])
            for cid, k in sorted(cams.items()):
                w.writerow([cid] + [_fmt(v) for v in (k.fx, k.fy, k.cx, k.cy)] + [k.width, k.height])
        for f in frames:
            fname = f.frame_id.replace("/", "+")
            with open(side / "keypoints" / f"{fname}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["idx", "u", "v"])
                for i, (u, v) in enumerate(f.keypoints):
                    w.writerow([i, _fmt(u), _fmt(v)])
            if f.descriptors is not None:
                (side / "descriptors").mkdir(exist_ok=True)
                with open(side / "descriptors" / f"{fname}.csv", "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["idx"] + [f"d{j}" for j in range(f.descriptors.shape[1])])
                    for i, d in enumerate(f.descriptors):
                        w.writerow([i] + [_fmt(v) for v in d])
            if f.point_ids is not None:
                (side / "point_ids").mkdir(exist_ok=True)
                with open(side / "point_ids" / f"{fname}.csv", "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["idx", "point_id"])
                    for i, pid in enumerate(f.point_ids):
                        w.writerow([i, int(pid)])
        gds = [(f.frame_id, f.global_descriptor) for f in frames if f.global_descriptor is not None]
        if gds:
            dim = len(gds[0][1])
            with open(side / "global_descriptors.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["frame_id"] + [f"g{j}" for j in range(dim)])
                for fid, g in gds:
                    w.writerow([fid] + [_fmt(v) for v in g])

    np.savetxt(
        root / "queries" / "odometry_covariance.csv",
        sequence.covariance,
        delimiter=",",
        fmt="%.17g",
    )
    if rig_defs:
        with open(root / "rig_extrinsics.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["rig_id", "camera_id", "qw", "qx", "qy", "qz", "tx", "ty", "tz"])
            for rig_id, cams in rig_defs:
                for cid, extr in cams:
                    w.writerow([rig_id, cid] + [_fmt(v) for v in extr.as_array7()])


# --- geodetic helper ----------------------------------------------------------

_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563
_WGS84_E2 = _WGS84_F * (2.0 - _WGS84_F)


def _meridian_arc(lat_rad: float) -> float:
    """Arc length along the meridian from the equator (Helmert series, mm-level)."""
    e2 = _WGS84_E2
    e4, e6 = e2 * e2, e2 * e2 * e2
    return _WGS84_A * (
        (1 - e2 / 4 - 3 * e4 / 64 - 5 * e6 / 256) * lat_rad
        - (3 * e2 / 8 + 3 * e4 / 32 + 45 * e6 / 1024) * math.sin(2 * lat_rad)
        + (15 * e4 / 256 + 45 * e6 / 1024) * math.sin(4 * lat_rad)
        - (35 * e6 / 3072) * math.sin(6 * lat_rad)
    )


def geodetic_to_local(lat: float, lon: float, alt: float, origin) -> np.ndarray:
    """WGS-84 geodetic -> local east-north-up meters about origin=(lat,lon,alt).

    Ellipsoidal local projection: north is measured along the meridian arc,
    east along the origin's parallel. Agrees with chord ENU to sub-mm at AR
    working ranges.
    """
    lat0, lon0, alt0 = origin
    for name, val, lim in (("lat", lat, 90.0), ("lon", lon, 180.0),
                           ("origin lat", lat0, 90.0), ("origin lon", lon0, 180.0)):
        if abs(val) > lim:
            raise ValueError(f"{name} {val} out of range (+/-{lim})")
    lat_r, lat0_r = math.radians(lat), math.radians(lat0)
    dlon = math.radians(((lon - lon0 + 180.0) % 360.0) - 180.0)
    n0 = _WGS84_A / math.sqrt(1.0 - _WGS84_E2 * math.sin(lat0_r) ** 2)
    east = dlon * (n0 + alt0) * math.cos(lat0_r)
    north = _meridian_arc(lat_r) - _meridian_arc(lat0_r)
    return np.array([east, north, alt - alt0])


# --- batching -----------------------------------------------------------------


def batch(sequence: QuerySequence, n: int) -> list[QuerySequence]:
    """Split into consecutive non-overlapping chunks of n rigs.

    A trailing chunk of >= 2 is kept; a trailing singleton is dropped (one
    frame cannot triangulate) with a warning.
    """
    if n < 2:
        raise ValueError("batch size must be >= 2")
    chunks = []
    for start in range(0, len(sequence.rigs), n):
        rigs = sequence.rigs[start : start + n]
        if len(rigs) == 1:
            log.warning(
                "dropping trailing singleton batch (frame %s)", rigs[0].rig_id
            )
            continue
        chunks.append(QuerySequence(rigs=rigs, covariance=sequence.covariance))
    return chunks
