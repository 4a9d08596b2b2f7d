#!/usr/bin/env python3
"""Benchmark of the seqloc localization chain on seeded synthetic scenes.

    python3 perfbench/run.py --workload oracle_outliers --seed 1 --seconds 20 --trace 0

Generates the workload's scenes from the seed, sets up (load_dataset plus the
reference global descriptors) several times, then carries every query frame of
every scene through the chain in whole rounds, one frame after the other,
until --seconds of rounds have run. Outputs are checked against the
generator's truth. The last stdout line is one JSON object; --trace 0 gives the
end-to-end metrics, --trace 1 a separate traced run with the per-layer metrics
and a span file under perfbench/traces/. See README.md.
"""

from __future__ import annotations

import os

# One process, no threads of its own: keep BLAS single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
WARMUP_FRAMES = 3
MIN_FRAMES = 100
LAYERS = ("retrieval", "matching", "triangulation", "pose_estimation", "pgo")


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _frames_per_s(rounds) -> dict:
    return _metric(sum(r.n_frames for r in rounds) / sum(r.seconds for r in rounds), "1/s")


def _end_to_end(rounds, setup_s) -> dict:
    frame_ms = [s * 1000.0 for r in rounds for s in r.frame_seconds]
    return {
        "frames_per_s": _frames_per_s(rounds),
        "frame_ms_p50": _metric(_percentile(frame_ms, 50), "ms"),
        "frame_ms_p90": _metric(_percentile(frame_ms, 90), "ms"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _span_totals(spans) -> tuple[dict, dict, dict]:
    """Per root span: layer -> [durations], layer -> self time, and the root's name."""
    root = []
    child_time = [0.0] * len(spans)
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        if parent >= 0:
            child_time[parent] += t1 - t0
    durations: dict[int, dict[str, list[float]]] = {}
    self_time: dict[int, dict[str, float]] = {}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent < 0:
            continue
        durations.setdefault(root[i], {}).setdefault(name, []).append(t1 - t0)
        by_root = self_time.setdefault(root[i], {})
        by_root[name] = by_root.get(name, 0.0) + (t1 - t0 - child_time[i])
    names = {i: s[0] for i, s in enumerate(spans) if s[3] < 0}
    return durations, self_time, names


def _count(n) -> dict:
    return _metric(n, "count")


def _ratio(num, den) -> dict:
    return _metric(num / den if den else 0.0, "ratio")


def _pass_counts(results, audit) -> dict:
    """Per-layer counts and accuracy of one round, from its records and their audit."""
    frames = [f for r in results for f in r.frames]
    graphs = [g for r in results for g in r.graphs]
    corr_in = sum(len(r.corrs) for r in frames)
    lifted = sum(len(r.lifted) for r in frames)
    nb_in = sum(len(r.nb_matches) for r in frames if r.nb_matches is not None)
    reports = [g.report for g in graphs if g.report is not None]
    out = {
        "retrieval.hit_ratio": _ratio(audit.retrieval_hits, len(frames)),
        "matching.pairs": _count(audit.pairs),
        "matching.matches": _count(audit.matches),
        "matching.precision": _ratio(audit.true_matches, audit.matches),
        "triangulation.matches_in": _count(nb_in),
        "triangulation.points_out": _count(lifted),
        "triangulation.accept_ratio": _ratio(lifted, nb_in),
        "triangulation.corr_out": _count(corr_in),
        "triangulation.point_err_cm_p50": _metric(_percentile(audit.point_err_cm, 50), "cm"),
        "pose_estimation.corr_in": _count(corr_in),
        "pose_estimation.ransac_iters": _count(sum(r.estimate.iterations for r in frames)),
        "pose_estimation.inlier_ratio": _ratio(sum(r.estimate.inlier_count for r in frames), corr_in),
        "pose_estimation.t_err_cm_p50": _metric(_percentile([t for t, _ in audit.pnp_err], 50), "cm"),
        "pose_estimation.r_err_deg_p50": _metric(_percentile([r for _, r in audit.pnp_err], 50), "deg"),
        "pgo.graphs": _count(len(reports)),
        "pgo.nodes": _count(sum(len(g.frame_ids) for g in graphs if g.report is not None)),
        "pgo.iters": _count(sum(r.iterations for r in reports)),
        "pgo.final_to_initial_cost": _ratio(
            sum(r.final_cost for r in reports), sum(r.initial_cost for r in reports)
        ),
    }
    # Final poses come out of pgo: their errors against the truth.
    for q in (50, 90):
        out[f"pgo.t_err_cm_p{q}"] = _metric(_percentile([t for t, _ in audit.final_err], q), "cm")
        out[f"pgo.r_err_deg_p{q}"] = _metric(_percentile([r for _, r in audit.final_err], q), "deg")
    return out


def _span_metrics(spans, rounds, dataset_bytes) -> dict:
    """Per-layer times and call counts from the spans of the traced run."""
    durations, self_time, names = _span_totals(spans)
    per_round = [durations.get(i, {}) for i, n in names.items() if n == "round"]
    self_round = [self_time.get(i, {}) for i, n in names.items() if n == "round"]
    setups = [durations[i] for i, n in names.items() if n == "setup"]

    def seconds(layer):  # median over rounds of the layer's time in one round
        return _metric(statistics.median(sum(d.get(layer, [])) for d in per_round), "s")

    def calls(layer):
        return _count(len(per_round[0].get(layer, [])))

    out = {
        "ingest.load_s": _metric(statistics.median(sum(d["ingest"]) for d in setups), "s"),
        "ingest.mb": _metric(dataset_bytes / 1e6, "MB"),
        "retrieval.calls": calls("retrieval"),
        "matching.ms_per_pair_p50": _metric(statistics.median(per_round[0]["matching"]) * 1000.0, "ms"),
        "pose_estimation.ms_per_frame_p50": _metric(
            statistics.median(per_round[0]["pose_estimation"]) * 1000.0, "ms"
        ),
        "pose_estimation.p3p_s": seconds("p3p"),
        "pose_estimation.p3p_calls": calls("p3p"),
        "pose_estimation.refine_s": seconds("refine_pose"),
        "pose_estimation.refine_calls": calls("refine_pose"),
        "trace.frames_per_s": _frames_per_s(rounds),
    }
    for layer in LAYERS:
        out[f"{layer}.s"] = seconds(layer)
    for layer in ("triangulation", "pose_estimation"):
        out[f"{layer}.self_s"] = _metric(statistics.median(s.get(layer, 0.0) for s in self_round), "s")
    return out


class RoundTiming:
    """What is kept of a timed round, one pass over every scene, once it has been checked."""

    def __init__(self, results):
        self.seconds = sum(r.seconds for r in results)
        self.frame_seconds = [f.seconds for r in results for f in r.frames]
        self.n_frames = len(self.frame_seconds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "seqloc" / "__init__.py").is_file():
        print(f"error: the seqloc sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import chain
    import checks
    import scene

    if args.workload not in chain.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(chain.WORKLOADS)}", file=sys.stderr)
        return 2
    w = chain.WORKLOADS[args.workload]
    tracer = chain.Tracer() if args.trace else chain.NullTracer()

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        dirs = [work / f"scene{k}" for k in range(w.scenes)]
        roots = [scene.generate(w.scene, (args.seed, k), d) for k, d in enumerate(dirs)]
        truths = [scene.load_truth(d) for d in dirs]
        dataset_bytes = sum(p.stat().st_size for root in roots for p in root.rglob("*") if p.is_file())

        setup_s = []
        for _ in range(SETUP_REPEATS):
            ctxs = None  # one copy of the datasets in memory at a time
            t0 = time.perf_counter()
            with tracer.span("setup"):
                ctxs = [chain.setup(root, tracer) for root in roots]
            setup_s.append(time.perf_counter() - t0)

        # The first frames once, untimed: first-call costs stay out of the
        # timed phase, and the timed pass must reproduce them bit for bit.
        neighbors = chain.forward_neighbors(ctxs[0])
        warm = [chain.localize_frame(ctxs[0], w, args.seed, chain.NullTracer(), i, neighbors) for i in range(WARMUP_FRAMES)]

        audit = checks.Audit()
        rounds = []
        with tracer.wrapping(*chain.INNER_FUNCTIONS) if args.trace else nullcontext():
            while not rounds or sum(r.n_frames for r in rounds) < MIN_FRAMES or sum(r.seconds for r in rounds) < args.seconds:
                with tracer.span("round"):
                    results = [chain.run_pass(ctx, w, args.seed, tracer) for ctx in ctxs]
                if not rounds:
                    # Checked between rounds, outside their timing; later
                    # rounds must repeat its final poses bit for bit.
                    for truth, ctx, result in zip(truths, ctxs, results):
                        checks.audit(truth, ctx, result, audit)
                    checks.check_totals(w, audit)
                    if not checks.same_estimates(warm, results[0].frames):
                        audit.problems.append("the timed pass gave other estimates than the warm-up for its first frames")
                    counts = _pass_counts(results, audit)
                    final_poses = [r.final_poses for r in results]
                elif not all(checks.same_poses(p, r.final_poses) for p, r in zip(final_poses, results)):
                    audit.problems.append(f"round {len(rounds)} gave other final poses than round 0")
                rounds.append(RoundTiming(results))
                del results

        if args.trace:
            metrics = {**counts, **_span_metrics(tracer.spans, rounds, dataset_bytes)}
            out = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "frame"], "spans": tracer.spans}))
        else:
            metrics = _end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in audit.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    digest = hashlib.sha256()
    for poses in final_poses:
        for fid in sorted(poses):
            digest.update(poses[fid].as_array7().tobytes())
    print(f"rounds {len(rounds)}  final poses sha256 {digest.hexdigest()}")
    print(json.dumps({
        "correct": not audit.problems,
        "attempted": sum(r.n_frames for r in rounds),
        "failed": audit.failed * len(rounds),
        "metrics": dict(sorted(metrics.items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
