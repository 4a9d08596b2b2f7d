"""The seqloc localization chain, driven frame by frame through public functions.

Each query frame goes retrieval -> matching -> triangulation -> pose_estimation;
each batch of frames then goes through pgo. The chain lives here, in the
benchmark, and every layer call is wrapped in a span so that per-layer times
are measured from outside the program. With a `NullTracer` the spans cost a
method call and record nothing.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from seqloc import pose_estimation as pe_mod
from seqloc import triangulation as tri_mod
from seqloc.ingest import Frame, QuerySequence, batch, load_dataset
from seqloc.matching import MatcherKind, match
from seqloc.pgo import GraphBuildError, build_graph, optimize
from seqloc.pose_estimation import CameraView, PoseEstimate, PoseStatus, lo_ransac_pnp
from seqloc.retrieval import frame_descriptor, top_k
from seqloc.triangulation import assemble_3d2d, select_neighbors, triangulate_matches

from scene import SceneSpec

# Forward-neighbor test: 0.5 m of travel or a 10 deg half-angle.
NEIGHBOR_T_MIN_M = 0.5
NEIGHBOR_THETA_MIN_RAD = math.radians(10.0)


@dataclass(frozen=True)
class Workload:
    scene: SceneSpec
    matcher: MatcherKind
    k: int  # references retrieved per frame
    batch_size: int | None  # None: one pose graph over the whole sequence
    scenes: int  # independent scenes per run, so a run averages over several draws
    outlier_rate: float = 0.0  # oracle matcher only


WORKLOADS = {
    "oracle_outliers": Workload(
        scene=SceneSpec(n_frames=50, points_per_m=6.0, ref_spacing_m=0.6),
        matcher=MatcherKind.SYNTHETIC_ORACLE,
        k=3,
        batch_size=10,
        outlier_rate=0.4,
        scenes=4,
    ),
    "cluttered_mnn": Workload(
        scene=SceneSpec(n_frames=20, points_per_m=2.0, ref_spacing_m=1.0, n_clutter=1500, descriptor_dim=64),
        matcher=MatcherKind.DESCRIPTOR_MNN,
        k=2,
        batch_size=10,
        scenes=2,
    ),
    "long_sequence_pgo": Workload(
        scene=SceneSpec(n_frames=100, points_per_m=2.0, ref_spacing_m=1.0),
        matcher=MatcherKind.SYNTHETIC_ORACLE,
        k=1,
        batch_size=None,
        scenes=3,
    ),
}


# --- spans ------------------------------------------------------------------------


class NullTracer:
    """Records nothing; used for the run that gives end-to-end numbers."""

    def span(self, name: str, frame: str | None = None):
        return nullcontext()


class Tracer:
    """In-memory spans: [name, start, end, parent index, frame id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, frame: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        if frame is None and parent >= 0:
            frame = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, frame])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def wrapping(self, *targets):
        """Span every call to module-level functions, e.g. (pose_estimation, "p3p")."""
        saved = [(mod, name, getattr(mod, name)) for mod, name in targets]

        def traced(name, fn):
            def call(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return call

        for mod, name, fn in saved:
            setattr(mod, name, traced(name, fn))
        try:
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)


# Functions inside pose_estimation and triangulation that the traced run splits out.
INNER_FUNCTIONS = ((pe_mod, "p3p"), (pe_mod, "refine_pose"), (tri_mod, "triangulate_pair"))


# --- set-up -----------------------------------------------------------------------


@dataclass
class Context:
    """What a user holds before the first frame: the dataset and reference descriptors."""

    sequence: QuerySequence
    ref_by_id: dict[str, Frame]
    ref_descriptors: list[tuple[str, np.ndarray]]


def setup(root, tracer) -> Context:
    with tracer.span("ingest"):
        sequences, references = load_dataset(root)
    with tracer.span("retrieval"):
        descriptors = [(f.frame_id, frame_descriptor(f)) for f in references]
    return Context(
        sequence=sequences[0],
        ref_by_id={f.frame_id: f for f in references},
        ref_descriptors=descriptors,
    )


# --- one pass over the sequence ---------------------------------------------------


@dataclass
class FrameRecord:
    """What one frame produced, kept for the checks and the counters."""

    frame_id: str
    candidates: list[str]
    nb_matches: object = None  # MatchSet with the forward neighbor
    ref_matches: list = field(default_factory=list)  # MatchSet per candidate
    lifted: list = field(default_factory=list)
    corrs: list = field(default_factory=list)
    estimate: PoseEstimate | None = None  # pose is T(world<-cam) when localized
    seconds: float = 0.0


@dataclass
class GraphRecord:
    frame_ids: list[str]
    initial_fixed: np.ndarray
    fixed: int
    nodes: list  # optimized T(world<-cam), or None when the graph could not be built
    report: object = None


@dataclass
class PassResult:
    frames: list[FrameRecord]
    graphs: list[GraphRecord]
    final_poses: dict[str, object]  # frame id -> Pose after pgo
    seconds: float


def _single_frame(rig) -> Frame:
    (frame,) = rig.frames.values()
    return frame


def forward_neighbors(ctx: Context) -> list[int | None]:
    return select_neighbors([r.pose for r in ctx.sequence.rigs], NEIGHBOR_T_MIN_M, NEIGHBOR_THETA_MIN_RAD)


def localize_frame(ctx: Context, w: Workload, seed: int, tracer, i: int, neighbors) -> FrameRecord:
    """Retrieval through lo_ransac_pnp for query frame i of the sequence."""
    rigs = ctx.sequence.rigs
    f = _single_frame(rigs[i])
    odo_i = rigs[i].pose
    t0 = time.perf_counter()
    with tracer.span("frame", f.frame_id):
        with tracer.span("retrieval"):
            cands = top_k(f.frame_id, frame_descriptor(f), ctx.ref_descriptors, w.k)
        refs = [ctx.ref_by_id[fid] for fid in cands.ids()]
        j = neighbors[i]
        rec = FrameRecord(f.frame_id, cands.ids())
        if j is None:
            est = PoseEstimate(f.frame_id, None, 0, np.zeros(0, dtype=bool), PoseStatus.SKIPPED_NO_NEIGHBOR)
        else:
            g = _single_frame(rigs[j])
            rec.nb_matches, *rec.ref_matches = [
                _match(tracer, w, seed, f, other) for other in [g, *refs]
            ]
            with tracer.span("triangulation"):
                rec.lifted = triangulate_matches(
                    rec.nb_matches, odo_i, rigs[j].pose, f.intrinsics, g.intrinsics, f.keypoints, g.keypoints
                )
                rec.corrs = assemble_3d2d(rec.lifted, list(zip(rec.ref_matches, refs)))
            slot = {fid: c for c, fid in enumerate(cands.ids())}
            points = np.array([c.point for c in rec.corrs]).reshape(-1, 3)
            pixels = np.array([c.ref_pixel for c in rec.corrs]).reshape(-1, 2)
            cam_idx = np.array([slot[c.ref_frame_id] for c in rec.corrs], dtype=int)
            views = [CameraView(r.intrinsics, r.pose.inverse()) for r in refs]
            with tracer.span("pose_estimation"):
                est = lo_ransac_pnp(f.frame_id, points, pixels, cam_idx, views, seed=seed)
        if est.pose is not None:
            # The estimate maps the odometry frame into the world; the frame's
            # own pose follows through its odometry pose.
            est = dataclasses.replace(est, pose=est.pose.compose(odo_i))
        rec.estimate = est
    rec.seconds = time.perf_counter() - t0
    return rec


def _match(tracer, w: Workload, seed: int, a: Frame, b: Frame):
    with tracer.span("matching"):
        return match(a, b, w.matcher, outlier_rate=w.outlier_rate, seed=seed)


def run_pass(ctx: Context, w: Workload, seed: int, tracer) -> PassResult:
    """Every query frame through the chain, then pgo over each batch."""
    rigs = ctx.sequence.rigs
    index = {r.rig_id: i for i, r in enumerate(rigs)}
    t0 = time.perf_counter()
    with tracer.span("pass"):
        with tracer.span("triangulation"):
            neighbors = forward_neighbors(ctx)
        frames, graphs, final = [], [], {}
        for chunk in batch(ctx.sequence, w.batch_size or len(rigs)):
            ids = [index[r.rig_id] for r in chunk.rigs]
            recs = [localize_frame(ctx, w, seed, tracer, i, neighbors) for i in ids]
            frames.extend(recs)
            with tracer.span("pgo"):
                graphs.append(_refine_batch(chunk, recs))
            if graphs[-1].nodes is not None:
                final.update(zip(graphs[-1].frame_ids, graphs[-1].nodes))
    return PassResult(frames, graphs, final, time.perf_counter() - t0)


def _refine_batch(chunk: QuerySequence, recs: list[FrameRecord]) -> GraphRecord:
    ids = [r.frame_id for r in recs]
    try:
        graph = build_graph([r.estimate for r in recs], [r.pose for r in chunk.rigs], chunk.covariance)
    except GraphBuildError:
        return GraphRecord(ids, np.zeros(7), -1, None)
    fixed = graph.nodes[graph.fixed].as_array7()
    nodes, report = optimize(graph)
    return GraphRecord(ids, fixed, graph.fixed, nodes, report)
