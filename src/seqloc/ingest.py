"""Dataset model and file formats for posed query sequences and reference images.

Directory layout: the tables are CSV files with a header row, and the
per-keypoint files are .npy arrays whose row i belongs to keypoint i.

    queries/poses.csv            frame_id,camera_id,qw,qx,qy,qz,tx,ty,tz
    queries/intrinsics.csv       camera_id,fx,fy,cx,cy,width,height
    queries/keypoints/<id>.npy   <f8 (n, 2): u, v             (one per frame)
    queries/descriptors/<id>.npy <f4 (n, D)                   (optional)
    queries/point_ids/<id>.npy   <i8 (n,)                     (optional, synthetic data)
    queries/global_descriptors.csv  frame_id,g0,...,g{G-1}   (optional)
    queries/odometry_covariance.csv  36 values, row-major 6x6 (optional)
    references/...               same structure, poses in the global frame
    references/geo.csv           frame_id,lat,lon,alt,heading_deg (optional pose source)
    rig_extrinsics.csv           rig_id,camera_id,qw,qx,qy,qz,tx,ty,tz (optional)
    matches/<A>__<B>.csv         idxA,idxB,score              (optional, precomputed)

Query poses are odometry T(q<-frame); reference poses are global T(r<-frame).
Descriptor rows, per keypoint and global, must have unit norm within UNIT_TOL.
Multi-camera rig captures name their frames "<instance>/<camera_id>"; plain ids
are treated as single-camera rigs. Frame instance ids must sort temporally,
with digit runs compared as numbers ("q9" before "q10").
Every camera's odometry pose in an instance must equal the rig pose composed
with that camera's extrinsic, to within RIG_TOL_M and RIG_TOL_RAD.

A .npy file loads only as np.save writes a C-order little-endian array of its
dtype and shape: format 1.0, that header, then exactly the data's bytes,
which are read straight into the array. A fault names the file and the first
bad row, counted from 0. A frame's per-keypoint .csv files of earlier
layouts are not read. Match files stay CSV: no workload reads them.

Every CSV file is UTF-8 text in one grammar. Lines end at a newline, carriage
returns before it are dropped, empty lines are skipped, and a line splits at
every comma, with no quoting and no comments. The id cells (frame_id, camera_id,
rig_id) are text, stripped and not empty. Every other cell holds one ASCII
number as np.loadtxt reads it: int64 in the idxA, idxB, width and height
columns, finite float64 elsewhere and in the headerless covariance.
save_dataset writes LF line ends, and raises ValueError on an id the grammar
cannot hold: empty, or with a comma, CR, LF or surrounding whitespace, and on a
descriptor value that float32 cannot hold.
"""

from __future__ import annotations

import logging
import math
import os
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
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


def default_odometry_covariance() -> np.ndarray:
    sr = math.radians(DEFAULT_SIGMA_R_DEG)
    return np.diag([DEFAULT_SIGMA_T_M**2] * 3 + [sr**2] * 3)


# --- csv tables ---------------------------------------------------------------

_POSE_COLUMNS = ("qw", "qx", "qy", "qz", "tx", "ty", "tz")

# Integer columns, wherever they stand in a header; every other numeric column
# is a float.
_INT_COLUMNS = frozenset({"idxA", "idxB", "width", "height"})

# One cell or line of the numeric files per element of its first argument.
_loadtxt = partial(np.loadtxt, delimiter=",", comments=None, quotechar=None, ndmin=1)

# Per-keypoint arrays: directory name (also the Frame attribute) -> dtype, shape.
_PER_KEYPOINT = {"keypoints": ("<f8", "(n, 2)"), "descriptors": ("<f4", "(n, D)"), "point_ids": ("<i8", "(n,)")}

_NPY_MAGIC = b"\x93NUMPY\x01\x00"  # format 1.0, which np.save writes for these headers
_FLOAT32_MAX = float(np.finfo(np.float32).max)

# Largest disagreement between a descriptor's norm and 1: matching and retrieval
# take dot products of descriptors as cosines.
UNIT_TOL = 1e-3

# Largest disagreement between a rig camera's odometry pose and the rig pose
# composed with that camera's extrinsic.
RIG_TOL_M = 1e-4
RIG_TOL_RAD = 1e-4


@dataclass(frozen=True)
class _Table:
    """A file as _read parses it: the text cells and the numbers of each row."""

    path: Path
    columns: list[str]  # the header's numeric columns
    text: list[list[str]]  # each row's leading text cells
    cells: np.ndarray  # (rows, columns) float64; an int64 column holds its ints' bits
    body: list[str]  # the lines after the header

    @cached_property
    def lines(self) -> list[int]:
        """The line of each row: empty lines are not rows."""
        return [line for line, s in enumerate(self.body, start=2) if s]

    def block(self, columns) -> np.ndarray:
        """The named columns as one (rows, columns) array: int64 when they are
        named in _INT_COLUMNS, float64 when none is."""
        index = {c: j for j, c in enumerate(self.columns)}
        try:
            block = self.cells[:, [index[c] for c in columns]]
        except KeyError as e:
            raise MalformedRecordError(f"column {e.args[0]!r} missing", self.path, 1) from None
        if _INT_COLUMNS.isdisjoint(columns):
            return block
        if not _INT_COLUMNS.issuperset(columns):
            raise MalformedRecordError(f"columns {list(columns)} mix integers and floats", self.path, 1)
        return block.view(np.int64)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _text(cell: str) -> str:
    """cell, checked to be a text cell that a table holds as it is."""
    if not cell or cell != cell.strip() or re.search("[,\r\n]", cell):
        raise ValueError(f"{cell!r} is empty or holds a comma, CR, LF or surrounding whitespace")
    return cell


def _decode(path: Path) -> list[str]:
    """The lines of a UTF-8 file, without the newline and the carriage returns
    that end them; a byte that is not UTF-8 raises MalformedRecordError at its line."""
    if not path.is_file():
        raise MissingFileError("required file missing", path=path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise MalformedRecordError(f"byte {data[e.start]:#04x} is not UTF-8", path, line) from None
    lines = text.split("\n")
    return [s.rstrip("\r") for s in lines] if "\r" in text else lines


def _number(cell: str, dtype):
    """The finite number of dtype that cell holds as np.loadtxt reads a cell, or None."""
    # loadtxt skips an empty line, ends a line at a carriage return, and can
    # crash on text that is not ASCII.
    if not (cell and cell.isascii()) or "\r" in cell:
        return None
    try:
        value = _loadtxt([cell], dtype=dtype)
    except (ValueError, OverflowError):
        return None
    return value[0] if value.shape == (1,) and np.isfinite(value[0]) else None


def _read(path: Path, expected_header, n_text: int = 0) -> _Table:
    """A CSV file whose header starts with expected_header, as a _Table.

    Each non-empty line splits at every comma. Its first n_text cells are text,
    stripped and not empty; every other cell of the file is parsed by one
    np.loadtxt call. Only when that call fails, or a float is not finite, are
    the lines parsed one at a time, and the first fault raises
    MalformedRecordError at its line.
    """
    lines = _decode(path)
    header, body = [h.strip() for h in lines[0].split(",")], lines[1:]
    if len(set(header)) != len(header):
        raise MalformedRecordError(f"header {header} repeats a column name", path, 1)
    if header[: len(expected_header)] != list(expected_header):
        raise MalformedRecordError(f"header {header} does not start with {list(expected_header)}", path, 1)
    columns = header[n_text:]
    if not columns:
        raise MalformedRecordError(f"header {header} has no numeric column", path, 1)
    is_int = np.array([c in _INT_COLUMNS for c in columns])
    dtype = np.dtype([(f"c{j}", np.int64 if i else np.float64) for j, i in enumerate(is_int)])
    text, numbers, whole = [], body, True
    if n_text:
        rows = [s.split(",", n_text) for s in body if s]
        text = [[c.strip() for c in r[:n_text]] for r in rows]
        numbers = [r[-1] for r in rows]
        whole = all(len(r) > n_text and all(t) for r, t in zip(rows, text)) and all(numbers)
    if whole and all(map(str.isascii, numbers)):  # loadtxt can crash on text that is not ASCII
        try:
            parsed = _loadtxt(numbers, dtype=dtype) if any(numbers) else np.zeros(0, dtype)
            cells = parsed.view(np.float64).reshape(len(parsed), len(columns))
            if np.isfinite(cells[:, ~is_int]).all():
                return _Table(path, columns, text, cells, body)
        except ValueError:
            pass
    for line, s in enumerate(body, start=2):  # the first line at fault
        if not s:
            continue
        cells = s.split(",")
        if len(cells) != len(header):
            raise MalformedRecordError(f"expected {len(header)} fields, got {len(cells)}", path, line)
        for column, cell in zip(header, cells[:n_text]):
            if not cell.strip():
                raise MalformedRecordError(f"field {column!r} is empty", path, line)
        for column, cell, i in zip(columns, cells[n_text:], is_int):
            if _number(cell, np.int64 if i else np.float64) is None:
                kind = "a 64-bit integer" if i else "a finite number"
                raise MalformedRecordError(f"field {column!r} = {cell!r} is not {kind}", path, line)
    raise MalformedRecordError("unreadable as numbers", path)


def _write_table(path: Path, header, rows) -> None:
    """Write header and rows as lines of comma-joined cells, each ended by LF."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = (",".join(map(str, row)) + "\n" for row in [header, *rows])
    path.write_text("".join(lines), encoding="utf-8", newline="\n")


def _parse_poses(table: _Table) -> list[Pose]:
    """Each row's qw..tz as a Pose."""
    poses = []
    for line, a in zip(table.lines, table.block(_POSE_COLUMNS).tolist()):
        try:
            poses.append(Pose.from_array7(a))
        except ValueError as e:
            raise MalformedRecordError(str(e), path=table.path, record=line)
    return poses


def _check_unit_rows(rows: np.ndarray, what: str, path: Path, records) -> None:
    """The first row whose norm, taken in float64, is not within UNIT_TOL of 1
    raises InvariantError at its record."""
    with np.errstate(over="ignore"):  # an overflowing norm fails the check
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))  # NaN is off too
    if len(off):
        raise InvariantError(f"{what} has norm {norms[off[0]]:.4f}", path, records[off[0]])


def _read_array(path: Path, kind: str) -> np.ndarray:
    """The kind's array in the .npy file at path: only the header np.save writes
    for the kind's dtype and shape, then exactly its data, read into the array."""
    descr, shape = _PER_KEYPOINT[kind]
    dims = re.sub("[nD]", "(?:0|[1-9][0-9]{0,18})", re.escape(shape))  # int64 sizes
    header = rf"\{{'descr': '{descr}', 'fortran_order': False, 'shape': ({dims}), \}} *\n"
    with open(path, "rb") as fh:
        head = fh.read(10)
        m = head[:8] == _NPY_MAGIC and re.fullmatch(header.encode(), fh.read(int.from_bytes(head[8:], "little")))
        if not m:
            raise MalformedRecordError(f"not the header np.save writes for {descr} {shape}", path)
        dims = tuple(map(int, re.findall(rb"[0-9]+", m[1])))
        size, left = math.prod(dims) * np.dtype(descr).itemsize, os.fstat(fh.fileno()).st_size - fh.tell()
        if left != size:  # checked before the array is made: a header can claim any size
            raise MalformedRecordError(f"{left} bytes of data for {descr} {dims}, not {size}", path)
        values = np.empty(dims, descr)
        if fh.readinto(values.view(np.uint8)) != size:  # a view: numpy keeps the export's format on values
            raise MalformedRecordError("file shrank while it was read", path)
    return values


def read_match_file(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The idxA, idxB and score columns of a match file."""
    table = _read(path, ("idxA", "idxB", "score"))
    idx = table.block(("idxA", "idxB"))
    return idx[:, 0], idx[:, 1], table.block(("score",))[:, 0]


def write_match_file(path: Path, rows: list[tuple[int, int, float]]) -> None:
    _write_table(path, ("idxA", "idxB", "score"), ([a, b, _fmt(s)] for a, b, s in rows))


def _file_stem(frame_id: str) -> str:
    """The name of a frame's files: a rig frame's "/" becomes "+"."""
    return frame_id.replace("/", "+")


def match_file_path(root: Path, frame_a: str, frame_b: str) -> Path:
    return Path(root) / "matches" / f"{_file_stem(frame_a)}__{_file_stem(frame_b)}.csv"


# --- loading ------------------------------------------------------------------


def _load_intrinsics(side: Path) -> dict[str, CameraIntrinsics]:
    table = _read(side / "intrinsics.csv", ("camera_id",), n_text=1)
    focal = table.block(("fx", "fy", "cx", "cy")).tolist()
    size = table.block(("width", "height")).tolist()
    out = {}
    for (camera_id,), line, f, (w, h) in zip(table.text, table.lines, focal, size):
        if camera_id in out:
            raise InvariantError(f"camera_id {camera_id!r} repeats", path=table.path, record=line)
        try:
            out[camera_id] = CameraIntrinsics(*f, width=w, height=h)
        except ValueError as e:
            raise InvariantError(str(e), path=table.path, record=line)
    return out


def _load_per_keypoint(side: Path, frame: Frame, kind: str) -> None:
    """Set frame.<kind> from its .npy file; only the keypoints file is required.
    The others need one row per keypoint, and descriptor rows unit norm."""
    path = side / kind / f"{_file_stem(frame.frame_id)}.npy"
    try:
        values = _read_array(path, kind)
    except FileNotFoundError:
        if path.with_suffix(".csv").is_file():
            raise MissingFileError("file missing; per-keypoint .csv files are no longer read", path) from None
        if kind == "keypoints":
            raise MissingFileError("required file missing", path=path) from None
        return
    n, m = len(values), len(frame.keypoints)
    if kind != "keypoints" and n != m:
        raise InvariantError(f"{n} rows of {kind} for {m} keypoints in {frame.frame_id}", path, min(n, m))
    if kind == "descriptors":
        _check_unit_rows(values, f"descriptor of {frame.frame_id}", path, range(n))
    elif kind == "keypoints":
        u, v = values.T  # NaN is not inside
        inside = (u >= 0) & (u < frame.intrinsics.width) & (v >= 0) & (v < frame.intrinsics.height)
        if not inside.all():
            r = int(np.argmin(inside))
            raise InvariantError(f"keypoint ({u[r]}, {v[r]}) outside image bounds of {frame.frame_id}", path, r)
    setattr(frame, kind, values)


def _load_side(side: Path, *, query_side: bool) -> tuple[list[Frame], list[int]]:
    """The frames of one side, and the line of each in its poses or geo table."""
    intrinsics = _load_intrinsics(side)
    poses_path = side / "poses.csv"
    geo_path = side / "geo.csv"
    frames: list[Frame] = []

    if poses_path.is_file():
        table = _read(poses_path, ("frame_id", "camera_id"), n_text=2)
        poses = _parse_poses(table)
        for (frame_id, cam), line, pose in zip(table.text, table.lines, poses):
            if cam not in intrinsics:
                raise InvariantError(
                    f"camera_id {cam!r} not in intrinsics.csv", path=poses_path, record=line
                )
            frames.append(Frame(frame_id, cam, intrinsics[cam], pose))
    elif not query_side and geo_path.is_file():
        table = _read(geo_path, ("frame_id",), n_text=1)
        frames = _frames_from_geo(table, intrinsics)
    else:
        raise MissingFileError("required file missing", path=poses_path)

    lines = table.lines
    by_id: dict[str, Frame] = {}
    by_stem: dict[str, str] = {}  # file stem -> frame_id
    for f, line in zip(frames, lines):
        other = by_stem.setdefault(_file_stem(f.frame_id), f.frame_id)
        if f.frame_id in by_id or other != f.frame_id:
            fault = "repeats" if other == f.frame_id else f"shares its file names with {other!r}"
            raise InvariantError(f"frame_id {f.frame_id!r} {fault}", path=table.path, record=line)
        by_id[f.frame_id] = f
        try:
            for kind in _PER_KEYPOINT:
                _load_per_keypoint(side, f, kind)
        except OSError as e:
            raise MalformedRecordError(
                f"the files of this frame_id cannot be opened: {e.strerror}", table.path, line
            ) from None

    gd_path = side / "global_descriptors.csv"
    if gd_path.is_file():
        table = _read(gd_path, ("frame_id",), n_text=1)
        vectors = table.block(table.columns)
        _check_unit_rows(vectors, "global descriptor", gd_path, table.lines)
        for (frame_id,), line, g in zip(table.text, table.lines, vectors):
            if frame_id not in by_id:
                raise InvariantError(
                    f"global descriptor of unknown frame {frame_id!r}", path=gd_path, record=line
                )
            if by_id[frame_id].global_descriptor is not None:
                raise InvariantError(
                    f"second global descriptor of {frame_id!r}", path=gd_path, record=line
                )
            # Within UNIT_TOL of unit norm; scaled to it, so that dot products are cosines.
            by_id[frame_id].global_descriptor = g / np.linalg.norm(g)
    return frames, lines


def _frames_from_geo(table: _Table, intrinsics: dict[str, CameraIntrinsics]) -> list[Frame]:
    """Build reference poses from geo.csv's records about the first record's origin."""
    path = table.path
    if not table.text:
        raise InvariantError("geo.csv has no records", path=path)
    if len(intrinsics) != 1:
        raise InvariantError(
            "geo.csv pose source requires exactly one camera in intrinsics.csv",
            path=path,
        )
    camera_id, intr = next(iter(intrinsics.items()))
    records = table.block(("lat", "lon", "alt", "heading_deg")).tolist()
    origin = records[0][:3]
    frames = []
    for (frame_id,), line, (lat, lon, alt, heading_deg) in zip(table.text, table.lines, records):
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
    table = _read(path, ("rig_id", "camera_id"), n_text=2)
    rigs: dict[str, dict[str, Pose]] = {}
    for (rig_id, cam), line, pose in zip(table.text, table.lines, _parse_poses(table)):
        cams = rigs.setdefault(rig_id, {})
        if cam in cams:
            raise InvariantError(f"camera {cam!r} of rig {rig_id!r} repeats", path, line)
        cams[cam] = pose
    return [(rig_id, list(cams.items())) for rig_id, cams in rigs.items()]


def _natural_key(instance_id: str) -> list:
    """Sort key that orders "q9" before "q10": digit runs compare as integers."""
    parts: list = re.split(r"(\d+)", instance_id)
    parts[1::2] = map(int, parts[1::2])  # re.split puts the digit runs at odd positions
    return parts


def _group_into_rigs(frames: list[Frame], lines: list[int], rig_defs, poses_path) -> list[Rig]:
    """Group the query frames, whose rows are at lines of poses_path, into rigs."""

    def fault(message: str, f: Frame) -> InvariantError:
        line = next(line for g, line in zip(frames, lines) if g is f)
        return InvariantError(message, path=poses_path, record=line)

    by_instance: dict[str, list[Frame]] = {}
    order: list[str] = []
    for f in frames:
        if f.instance_id not in by_instance:
            order.append(f.instance_id)
        by_instance.setdefault(f.instance_id, []).append(f)
    if order != sorted(order, key=_natural_key):
        keys = [_natural_key(inst) for inst in order]
        k = next(k for k in range(1, len(order)) if keys[k] < keys[k - 1])
        raise fault("query frame instances are not in increasing order", by_instance[order[k]][0])

    rigs = []
    for inst in order:
        members = by_instance[inst]
        cam_ids = {f.camera_id for f in members}
        if len(cam_ids) != len(members):
            ids = [f.camera_id for f in members]
            repeat = next(f for i, f in enumerate(members) if f.camera_id in ids[:i])
            raise fault(f"rig instance {inst!r} repeats a camera", repeat)
        if len(members) == 1 and "/" not in members[0].frame_id:
            cams = [(members[0].camera_id, Pose.identity())]
        else:
            matches = [d for d in rig_defs if {c for c, _ in d[1]} == cam_ids]
            if not matches:
                raise fault(
                    f"no rig definition covers cameras {sorted(cam_ids)} of {inst!r}", members[0]
                )
            cams = matches[0][1]
        extr = dict(cams)
        first = members[0]
        rig_pose = first.pose.compose(extr[first.camera_id].inverse())
        for f in members[1:]:
            gap = rig_pose.compose(extr[f.camera_id]).inverse().compose(f.pose)
            dt, dr = math.hypot(*gap.translation), gap.rotation.angle
            if not (dt <= RIG_TOL_M and dr <= RIG_TOL_RAD):
                raise fault(
                    f"odometry pose of {f.frame_id!r} is {dt:.3g} m, {dr:.3g} rad off"
                    f" its rig pose composed with the extrinsic of {f.camera_id!r}",
                    f,
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
    vals = []
    for line, s in enumerate(_decode(path), start=1):
        for cell in s.split(",") if s else []:
            value = _number(cell, np.float64)
            if value is None:
                fault = f"bad covariance value {cell!r}: not a number or not finite"
                raise MalformedRecordError(fault, path, line)
            vals.append(value)
    if len(vals) != 36:
        raise MalformedRecordError(
            f"expected 36 covariance values, got {len(vals)}", path=path
        )
    cov = np.reshape(vals, (6, 6))
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
    references, _ = _load_side(ref_dir, query_side=False)
    if not references:
        raise InvariantError("no reference frames", path=ref_dir)

    query_frames, query_lines = _load_side(root / "queries", query_side=True)
    rig_defs = _load_rig_definitions(root)
    rigs = _group_into_rigs(query_frames, query_lines, rig_defs, root / "queries" / "poses.csv")
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
            ([_text(f.frame_id), _text(f.camera_id), *map(_fmt, f.pose.as_array7())] for f in frames),
        )
        cams = {f.camera_id: f.intrinsics for f in frames}
        _write_table(
            side / "intrinsics.csv",
            ("camera_id", "fx", "fy", "cx", "cy", "width", "height"),
            (
                [_text(cid), *map(_fmt, (k.fx, k.fy, k.cx, k.cy)), k.width, k.height]
                for cid, k in sorted(cams.items())
            ),
        )
        for f in frames:
            if f.descriptors is not None and not np.abs(f.descriptors).max(initial=0.0) <= _FLOAT32_MAX:
                raise ValueError(f"descriptors of {f.frame_id} hold a value that float32 cannot")
            for kind, (descr, _) in _PER_KEYPOINT.items():
                if getattr(f, kind) is not None:  # same_kind: a fractional point id raises, not truncates
                    array = np.asarray(getattr(f, kind)).astype(descr, order="C", casting="same_kind")
                    path = side / kind / f"{_file_stem(f.frame_id)}.npy"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    np.save(path, array, allow_pickle=False)
        gds = [(f.frame_id, f.global_descriptor) for f in frames if f.global_descriptor is not None]
        if gds:
            _write_table(
                side / "global_descriptors.csv",
                ("frame_id", *(f"g{j}" for j in range(len(gds[0][1])))),
                ([_text(fid), *map(_fmt, g)] for fid, g in gds),
            )

    with open(root / "queries" / "odometry_covariance.csv", "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, sequence.covariance, delimiter=",", fmt="%.17g")
    if rig_defs:
        _write_table(
            root / "rig_extrinsics.csv",
            ("rig_id", "camera_id", *_POSE_COLUMNS),
            (
                [_text(rig_id), _text(cid), *map(_fmt, extr.as_array7())]
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
