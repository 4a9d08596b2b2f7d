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
Every camera's odometry pose in an instance must equal the rig pose composed
with that camera's extrinsic, to within RIG_TOL_M and RIG_TOL_RAD.
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


# --- csv tables ---------------------------------------------------------------

_POSE_COLUMNS = ("qw", "qx", "qy", "qz", "tx", "ty", "tz")

# Per-keypoint files: directory name (also the Frame attribute) -> leading columns.
_PER_KEYPOINT = {
    "keypoints": ("idx", "u", "v"),
    "descriptors": ("idx",),
    "point_ids": ("idx", "point_id"),
}

# Largest disagreement between a rig camera's odometry pose and the rig pose
# composed with that camera's extrinsic.
RIG_TOL_M = 1e-4
RIG_TOL_RAD = 1e-4


@dataclass(frozen=True)
class _Table:
    """One CSV file: its header, the stripped cells of each non-blank row, their lines."""

    path: Path
    header: list[str]
    rows: list[list[str]]
    lines: list[int]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _read_table(path: Path, expected_header=()) -> _Table:
    """Read a CSV file, checking its header and the field count of every row."""
    if not path.is_file():
        raise MissingFileError("required file missing", path=path)
    rows, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
            if len(set(header)) != len(header):
                raise MalformedRecordError(f"header {header} repeats a column name", path, 1)
            if header[: len(expected_header)] != list(expected_header):
                raise MalformedRecordError(
                    f"header {header} does not start with {list(expected_header)}", path, 1
                )
            for lineno, raw in enumerate(reader, start=2):
                cells = [c.strip() for c in raw]
                if not any(cells):
                    continue
                if len(cells) != len(header):
                    raise MalformedRecordError(
                        f"expected {len(header)} fields, got {len(cells)}", path, lineno
                    )
                rows.append(cells)
                lines.append(lineno)
        except StopIteration:
            raise MalformedRecordError("empty file, header expected", path=path)
        except (csv.Error, UnicodeDecodeError) as e:
            raise MalformedRecordError(f"unreadable as CSV text: {e}", path=path)
    return _Table(path, header, rows, lines)


def _block(table: _Table, columns, dtype=float) -> np.ndarray:
    """The named columns as one (rows, columns) array.

    Every cell must be a finite number (a 64-bit integer for an integer dtype);
    the first that is not raises MalformedRecordError naming its line.
    """
    if not table.rows:
        return np.zeros((0, len(columns)), dtype=dtype)
    missing = [c for c in columns if c not in table.header]
    if missing:
        raise MalformedRecordError(f"column {missing[0]!r} missing", table.path, 1)
    cols = [table.header.index(c) for c in columns]
    cells = [r[j] for r in table.rows for j in cols]
    try:
        block = np.array(cells, dtype=dtype).reshape(len(table.rows), len(cols))
        if np.isfinite(block).all():
            return block
    except (ValueError, OverflowError):
        pass
    kind = "a finite number" if dtype is float else "a 64-bit integer"
    for k, cell in enumerate(cells):
        try:
            bad = not np.isfinite(np.array(cell, dtype=dtype))
        except (ValueError, OverflowError):
            bad = True
        if bad:
            row, col = divmod(k, len(cols))
            raise MalformedRecordError(
                f"field {columns[col]!r} = {cell!r} is not {kind}", table.path, table.lines[row]
            )


def _write_table(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _parse_pose_fields(table: _Table) -> list[Pose | None]:
    """Each row's qw..tz as a Pose; None where those cells are all blank or absent."""
    cols = [table.header.index(c) for c in _POSE_COLUMNS if c in table.header]
    posed = [i for i, r in enumerate(table.rows) if any(r[j] for j in cols)]
    lines = [table.lines[i] for i in posed]
    sub = _Table(table.path, table.header, [table.rows[i] for i in posed], lines)
    poses: list[Pose | None] = [None] * len(table.rows)
    for i, line, a in zip(posed, lines, _block(sub, _POSE_COLUMNS).tolist()):
        try:
            poses[i] = Pose.from_array7(a)
        except ValueError as e:
            raise MalformedRecordError(str(e), path=table.path, record=line)
    return poses


def read_match_file(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The idxA, idxB and score columns of a match file."""
    table = _read_table(path, ("idxA", "idxB", "score"))
    idx = _block(table, ("idxA", "idxB"), np.int64)
    return idx[:, 0], idx[:, 1], _block(table, ("score",))[:, 0]


def write_match_file(path: Path, rows: list[tuple[int, int, float]]) -> None:
    _write_table(path, ("idxA", "idxB", "score"), ([a, b, _fmt(s)] for a, b, s in rows))


def match_file_path(root: Path, frame_a: str, frame_b: str) -> Path:
    safe = lambda s: s.replace("/", "+")
    return Path(root) / "matches" / f"{safe(frame_a)}__{safe(frame_b)}.csv"


# --- loading ------------------------------------------------------------------


def _load_intrinsics(side: Path) -> dict[str, CameraIntrinsics]:
    table = _read_table(side / "intrinsics.csv", ("camera_id",))
    values = _block(table, ("fx", "fy", "cx", "cy", "width", "height")).tolist()
    out = {}
    for (camera_id, *_), line, (fx, fy, cx, cy, w, h) in zip(table.rows, table.lines, values):
        try:
            out[camera_id] = CameraIntrinsics(fx, fy, cx, cy, width=int(w), height=int(h))
        except ValueError as e:
            raise InvariantError(str(e), path=table.path, record=line)
    return out


def _load_per_keypoint(side: Path, frame: Frame, kind: str) -> None:
    """Set frame.<kind> from its per-keypoint file, if there is one.

    Each row's idx must be a distinct integer in [0, n); the row goes to that
    index. Files other than the keypoints need one row per keypoint.
    """
    path = side / kind / f"{frame.frame_id.replace('/', '+')}.csv"
    if not path.is_file():
        return
    table = _read_table(path, _PER_KEYPOINT[kind])
    n = len(table.rows)
    if kind != "keypoints" and n != len(frame.keypoints):
        raise InvariantError(
            f"{n} rows of {kind} for {len(frame.keypoints)} keypoints in {frame.frame_id}",
            path=path,
        )
    idx = _block(table, ("idx",), np.int64)[:, 0]
    if not np.array_equal(np.sort(idx), np.arange(n)):
        seen = set()
        for i, line in zip(idx.tolist(), table.lines):
            if not 0 <= i < n or i in seen:
                fault = "repeated" if i in seen else f"outside [0, {n})"
                raise MalformedRecordError(f"idx {i} {fault}", path=path, record=line)
            seen.add(i)

    columns = _PER_KEYPOINT[kind][1:] or table.header[1:]
    values = _block(table, columns, np.int64 if kind == "point_ids" else float)
    if kind == "keypoints":
        u, v = values.T
        inside = (u >= 0) & (u < frame.intrinsics.width) & (v >= 0) & (v < frame.intrinsics.height)
        if not inside.all():
            r = int(np.argmin(inside))
            raise InvariantError(
                f"keypoint ({u[r]}, {v[r]}) outside image bounds of {frame.frame_id}",
                path=path,
                record=table.lines[r],
            )
    ordered = np.empty_like(values)
    ordered[idx] = values
    setattr(frame, kind, ordered[:, 0] if kind == "point_ids" else ordered)


def _load_side(side: Path, *, query_side: bool) -> list[Frame]:
    intrinsics = _load_intrinsics(side)
    poses_path = side / "poses.csv"
    geo_path = side / "geo.csv"
    frames: list[Frame] = []

    if poses_path.is_file():
        table = _read_table(poses_path, ("frame_id", "camera_id"))
        poses = _parse_pose_fields(table)
        for (frame_id, cam, *_), line, pose in zip(table.rows, table.lines, poses):
            if cam not in intrinsics:
                raise InvariantError(
                    f"camera_id {cam!r} not in intrinsics.csv", path=poses_path, record=line
                )
            frames.append(Frame(frame_id, cam, intrinsics[cam], pose))
    elif not query_side and geo_path.is_file():
        frames = _frames_from_geo(geo_path, intrinsics)
    else:
        raise MissingFileError("required file missing", path=poses_path)

    by_id: dict[str, Frame] = {}
    for f in frames:
        if f.frame_id in by_id:
            raise InvariantError(f"duplicate frame_id {f.frame_id!r}", path=poses_path)
        by_id[f.frame_id] = f
        for kind in _PER_KEYPOINT:
            _load_per_keypoint(side, f, kind)

    gd_path = side / "global_descriptors.csv"
    if gd_path.is_file():
        table = _read_table(gd_path, ("frame_id",))
        vectors = _block(table, table.header[1:])
        for (frame_id, *_), line, g in zip(table.rows, table.lines, vectors):
            with np.errstate(over="ignore"):  # an overflowing norm fails the check below
                n = np.linalg.norm(g)
            if abs(n - 1.0) > 1e-3:
                raise InvariantError(
                    f"global descriptor of {frame_id} has norm {n:.4f}", path=gd_path, record=line
                )
            if frame_id in by_id:
                by_id[frame_id].global_descriptor = g / n
    return frames


def _frames_from_geo(path: Path, intrinsics: dict[str, CameraIntrinsics]) -> list[Frame]:
    """Build reference poses from geodetic records about the first record's origin."""
    table = _read_table(path, ("frame_id",))
    if not table.rows:
        raise InvariantError("geo.csv has no records", path=path)
    if len(intrinsics) != 1:
        raise InvariantError(
            "geo.csv pose source requires exactly one camera in intrinsics.csv",
            path=path,
        )
    camera_id, intr = next(iter(intrinsics.items()))
    records = _block(table, ("lat", "lon", "alt", "heading_deg")).tolist()
    origin = records[0][:3]
    frames = []
    for (frame_id, *_), line, (lat, lon, alt, heading_deg) in zip(table.rows, table.lines, records):
        try:
            enu = geodetic_to_local(lat, lon, alt, origin)
        except ValueError as e:
            raise MalformedRecordError(str(e), path=path, record=line)
        heading = math.radians(heading_deg)
        # Camera +z along the compass heading, +y down: columns are the camera
        # axes expressed in ENU.
        R = np.array(
            [
                [math.cos(heading), 0.0, math.sin(heading)],
                [-math.sin(heading), 0.0, math.cos(heading)],
                [0.0, -1.0, 0.0],
            ]
        )
        frames.append(Frame(frame_id, camera_id, intr, pose=Pose.from_rt(R, enu)))
    return frames


def _load_rig_definitions(root: Path) -> list[tuple[str, list[tuple[str, Pose]]]]:
    path = root / "rig_extrinsics.csv"
    if not path.is_file():
        return []
    table = _read_table(path, ("rig_id", "camera_id"))
    rigs: dict[str, list[tuple[str, Pose]]] = {}
    for (rig_id, cam, *_), line, pose in zip(table.rows, table.lines, _parse_pose_fields(table)):
        if pose is None:
            raise InvariantError(
                f"extrinsic missing for rig {rig_id!r} camera {cam!r}", path=path, record=line
            )
        rigs.setdefault(rig_id, []).append((cam, pose))
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
        extr = dict(cams)
        first = members[0]
        rig_pose = first.pose.compose(extr[first.camera_id].inverse())
        for f in members[1:]:
            gap = rig_pose.compose(extr[f.camera_id]).inverse().compose(f.pose)
            dt, dr = math.hypot(*gap.translation), gap.rotation.angle
            if not (dt <= RIG_TOL_M and dr <= RIG_TOL_RAD):
                raise InvariantError(
                    f"odometry pose of {f.frame_id!r} is {dt:.3g} m, {dr:.3g} rad off"
                    f" its rig pose composed with the extrinsic of {f.camera_id!r}",
                    path=poses_path,
                )
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
    pose_header = ("frame_id", "camera_id", *_POSE_COLUMNS)
    for side_name, frames in (
        ("queries", [f for r in sequence.rigs for f in r.frames.values()]),
        ("references", references),
    ):
        side = root / side_name
        _write_table(
            side / "poses.csv",
            pose_header,
            ([f.frame_id, f.camera_id, *map(_fmt, f.pose.as_array7())] for f in frames),
        )
        cams = {f.camera_id: f.intrinsics for f in frames}
        _write_table(
            side / "intrinsics.csv",
            ("camera_id", "fx", "fy", "cx", "cy", "width", "height"),
            (
                [cid, *map(_fmt, (k.fx, k.fy, k.cx, k.cy)), k.width, k.height]
                for cid, k in sorted(cams.items())
            ),
        )
        for f in frames:
            name = f"{f.frame_id.replace('/', '+')}.csv"
            _write_table(
                side / "keypoints" / name,
                _PER_KEYPOINT["keypoints"],
                ([i, *map(_fmt, kp)] for i, kp in enumerate(f.keypoints)),
            )
            if f.descriptors is not None:
                _write_table(
                    side / "descriptors" / name,
                    ("idx", *(f"d{j}" for j in range(f.descriptors.shape[1]))),
                    ([i, *map(_fmt, d)] for i, d in enumerate(f.descriptors)),
                )
            if f.point_ids is not None:
                _write_table(
                    side / "point_ids" / name,
                    _PER_KEYPOINT["point_ids"],
                    enumerate(f.point_ids.tolist()),
                )
        gds = [(f.frame_id, f.global_descriptor) for f in frames if f.global_descriptor is not None]
        if gds:
            _write_table(
                side / "global_descriptors.csv",
                ("frame_id", *(f"g{j}" for j in range(len(gds[0][1])))),
                ([fid, *map(_fmt, g)] for fid, g in gds),
            )

    np.savetxt(
        root / "queries" / "odometry_covariance.csv",
        sequence.covariance,
        delimiter=",",
        fmt="%.17g",
    )
    if rig_defs:
        _write_table(
            root / "rig_extrinsics.csv",
            ("rig_id", "camera_id", *_POSE_COLUMNS),
            (
                [rig_id, cid, *map(_fmt, extr.as_array7())]
                for rig_id, cams in rig_defs
                for cid, extr in cams
            ),
        )


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
