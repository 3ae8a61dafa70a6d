"""uwconvoy benchmark: three seeded closed-loop workloads over sim -> MDPM -> eval.

One run of one workload:

    python3 perfbench/run.py --workload pipeline --seed 3 --seconds 10 --trace 0

prints one JSON object as its last line of standard output: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Every metric of every workload, with names and units:

    python3 perfbench/run.py --report --seed 3

Tiny sizes, every workload in both modes, checked against BENCHMARK.json:

    python3 perfbench/run.py --selfcheck

The program is imported from `src/` of the checkout this file sits in, and
every file the benchmark writes stays under `perfbench/`. See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads. The program is single-threaded
# but for OpenBLAS, whose second thread on a 2-core host takes the other
# core for no gain on MDPM's small products and stalls the first thread
# whenever the host hands that core to another tenant.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work" / str(os.getpid())  # runs may overlap, so one each
RESULTS = BENCH / "results"
WORKLOAD_ORDER = ("pipeline", "convoy", "eval_sweep")


def environment() -> dict:
    """Machine and library facts that bear on the timings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "loadavg_start": os.getloadavg(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, or why it is unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError as exc:
        return f"unknown ({exc})"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown (no OpenBLAS loaded)"


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def hash_outputs(job_dir: Path, outputs: dict[str, str]) -> dict[str, str]:
    """SHA-256 of every file a job wrote and of every stdout it printed; the
    PGM frames are hashed together, in file-name order."""
    hashes = {f"stdout:{k}": hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()}
    frames = hashlib.sha256()
    n_frames = 0
    for path in sorted(job_dir.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(job_dir).as_posix()
        if path.suffix == ".pgm":
            frames.update(rel.encode() + b"\0" + path.read_bytes())
            n_frames += 1
        else:
            hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    if n_frames:
        hashes[f"frames:{n_frames}"] = frames.hexdigest()
    return dict(sorted(hashes.items()))


class Run:
    """One workload in one process: set up, measure, check."""

    def __init__(self, name: str, seed: int, tiny: bool):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.reference: dict[str, str] | None = None
        self.quality: dict | None = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self) -> float:
        self.wl = None
        gc.collect()
        inputs = WORK / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        self.uw = workloads.load_package(SRC)
        inputs.mkdir(parents=True)
        self.wl = workloads.WORKLOADS[self.name](self.uw, inputs, self.seed, self.tiny)
        self.wl.setup()
        return time.perf_counter() - start

    def job(self) -> tuple[float, workloads.JobResult]:
        """One job, its outputs hashed against the run's first job.

        A job fails when a call exits non-zero or raises, or when it writes
        other bytes than the first job. The first job's outputs are checked.
        Hashing and checking are not timed.
        """
        job_dir = WORK / "job"
        shutil.rmtree(job_dir, ignore_errors=True)
        job_dir.mkdir(parents=True)
        start = time.perf_counter()
        try:
            result = self.wl.job(job_dir)
        except Exception:
            result = workloads.JobResult(items=0, codes=[-1])
            self.errors.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        hashes = hash_outputs(job_dir, result.outputs)
        self.attempted += 1
        ok = all(code == 0 for code in result.codes)
        if self.attempted == 1:
            self.reference = hashes
            if ok:
                self.quality = self.check(job_dir, result)
        elif hashes != self.reference:
            ok = False
            self.errors.append(f"job {self.attempted}: outputs differ from the first job")
        self.failed += not ok
        shutil.rmtree(job_dir)
        return elapsed, result

    def measure(self, seconds: float) -> list[tuple[float, workloads.JobResult]]:
        """Run jobs one after another until their time reaches `seconds`."""
        jobs = [self.job()]
        while sum(t for t, _ in jobs) < seconds:
            jobs.append(self.job())
        return jobs

    def check(self, job_dir: Path, result: workloads.JobResult) -> dict | None:
        # any exception here is a wrong output, to be reported, not a crash
        try:
            return self.wl.check(job_dir, result)
        except Exception:
            self.errors.append(f"check: {traceback.format_exc()}")
            return None

    @property
    def correct(self) -> bool:
        return self.quality is not None and self.failed == 0


def throughput(jobs) -> float:
    """Items per second of the third-quartile job: the rate that three jobs
    in four reach.

    On a shared host the same job runs up to 1.7 times faster while the
    other tenants are idle, in spells of 5 to 60 s; the upper quartile of
    the job times stays with the host's usual, contended speed unless such
    a spell covers three quarters of the run, where the median moves once
    it covers half.
    """
    return max(r.items for _, r in jobs) / percentile([t for t, _ in jobs], 75)


def end_to_end(run: Run, setup_s: list[float], jobs) -> tuple[dict, dict]:
    lat = [1e3 * t for t, _ in jobs]
    metrics = {
        "items_per_s": (throughput(jobs), "items/s"),
        # the upper quartile, for the reason given in throughput()
        "latency_ms_p75": (percentile(lat, 75), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    extra = {"failed_frac": (run.failed / run.attempted, "ratio")}
    extra["latency_ms_p50"] = (statistics.median(lat), "ms")
    for key in ("recall", "avg_iou", "in_bounds_frac"):
        if run.quality and run.quality.get(key) is not None:
            extra[key] = (run.quality[key], "ratio")
    return metrics, extra


def per_layer(run: Run, tracer: spans.Tracer, traced, untraced, scaling) -> dict:
    jobs = len(traced)
    calls, total, counts = tracer.calls, tracer.total_s, tracer.counts

    def per_job(value):
        return value / jobs

    def ms(name, q):
        return 1e3 * percentile(tracer.samples_s.get(name, []), q)

    full = counts["mdpm.full_pushes"]
    config = run.uw.mdpm.MdpmConfig()
    paths = 0
    if tracer.mdpm_grid is not None:
        g = tracer.mdpm_grid
        paths = len(run.uw.mdpm._candidate_paths(g.rows, g.columns, config.buffer_length))
    m = {
        "sim.run_convoy.s": (per_job(total["sim.run_convoy"]), "s"),
        "sim.ticks": (per_job(counts["sim.ticks"]), "count"),
        "sim.detector_fires": (per_job(counts["sim.detector_fires"]), "count"),
        "sim.detections": (per_job(counts["sim.detections"]), "count"),
        "sim.project_bbox.calls": (per_job(calls["sim.project_bbox"]), "count"),
        "sim.project_bbox.s": (per_job(total["sim.project_bbox"]), "s"),
        "sim.noisy_detector.s": (per_job(total["sim.noisy_detector"]), "s"),
        "sim.step_follower.s": (per_job(total["sim.step_follower"]), "s"),
        "sim.render.frames": (per_job(calls["sim.render"]), "count"),
        "sim.render.s": (per_job(total["sim.render"]), "s"),
        "sim.render.ms_p50": (ms("sim.render", 50), "ms"),
        "servo.servo_update.calls": (per_job(calls["servo.servo_update"]), "count"),
        "servo.servo_update.s": (per_job(total["servo.servo_update"]), "s"),
        "servo.stops": (per_job(counts["servo.stops"]), "count"),
        "mdpm.push.calls": (per_job(calls["mdpm.push"]), "count"),
        "mdpm.push.s": (per_job(total["mdpm.push"]), "s"),
        "mdpm.push.ms_p50": (ms("mdpm.push", 50), "ms"),
        "mdpm.push.ms_p99": (ms("mdpm.push", 99), "ms"),
        "mdpm.detections": (per_job(counts["mdpm.detections"]), "count"),
        "mdpm.detect_ratio": (counts["mdpm.detections"] / full if full else 0.0, "ratio"),
        "mdpm.paths": (paths, "count"),
        "mdpm.survivor_ratio": (config.prune_count / paths if paths else 0.0, "ratio"),
    }
    for name in ("write_pgm", "read_pgm", "format_trace_csv"):
        m[f"fileio.{name}.s"] = (per_job(total[f"fileio.{name}"]), "s")
        m[f"fileio.{name}.bytes"] = (per_job(counts[f"fileio.{name}.bytes"]), "bytes")
    for name in ("write_frame_dir", "load_frame_dir", "parse_annotations",
                 "parse_predictions", "format_predictions", "parse_config"):
        m[f"fileio.{name}.s"] = (per_job(total[f"fileio.{name}"]), "s")
    m.update({
        "evaluation.select_threshold.s": (per_job(total["evaluation.select_threshold"]), "s"),
        "evaluation.select_threshold.candidates": (
            per_job(counts["evaluation.select_threshold.candidates"]), "count"),
        "evaluation.classify_frames.calls": (
            per_job(calls["evaluation.classify_frames"]), "count"),
        "evaluation.classify_frames.s": (per_job(total["evaluation.classify_frames"]), "s"),
        "evaluation.metrics_summary.calls": (
            per_job(calls["evaluation.metrics_summary"]), "count"),
        "evaluation.track_statistics.s": (per_job(total["evaluation.track_statistics"]), "s"),
        "evaluation.histogram_report.s": (per_job(total["evaluation.histogram_report"]), "s"),
        "geometry.iou.calls": (per_job(counts["geometry.iou.calls"]), "count"),
    })
    for sub in ("sim", "mdpm", "eval", "servo-sim"):
        m[f"cli.{sub}.s"] = (per_job(total[f"cli.{sub}"]), "s")
    m["cli.self_s"] = (per_job(sum(v for k, v in tracer.self_s.items() if k.startswith("cli."))), "s")
    for name, value in scaling.items():
        m[name] = (value, "ms" if ".ms_" in name else "slope" if name.endswith("slope") else "s")
    quality = run.quality or {}
    for key in ("recall", "avg_iou", "lfr", "in_bounds_frac"):
        value = quality.get(key)
        m[f"quality.{key}"] = (0.0 if value is None else value, "ratio")
    m["quality.threshold"] = (quality.get("threshold") or 0.0, "confidence")
    m["jobs.failed_frac"] = (run.failed / run.attempted, "ratio")
    plain, with_spans = throughput(untraced), throughput(traced)
    m["trace.overhead_items_per_s"] = (plain - with_spans, "items/s")
    m["trace.overhead_frac"] = ((plain - with_spans) / plain, "ratio")
    return m


def run_workload(args) -> int:
    env = environment()
    if not (SRC / "uwconvoy" / "__init__.py").is_file():
        print(f"error: no uwconvoy package under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.size == "tiny")
    # setup_s is the median of at least three set-ups; cheap set-ups are
    # repeated up to seven times
    setup_s = [run.setup()]
    while not args.trace and (len(setup_s) < 3 or len(setup_s) < 7 and sum(setup_s) < 2.0):
        setup_s.append(run.setup())
    # the first job lets the heap and the caches fill; users who run jobs
    # back to back see the later jobs' times
    warmup_s, _ = run.job()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "setup_s": setup_s, "warmup_s": warmup_s}
    if args.trace:
        untraced = run.measure(args.seconds / 2)
        scaling = workloads.scaling_points(run.uw, args.seed, run.tiny)
        tracer = spans.Tracer()
        spans.install(run.uw, tracer)
        traced = run.measure(args.seconds / 2)
        metrics = per_layer(run, tracer, traced, untraced, scaling)
        extra = {}
        record["spans"] = tracer.table()
        jobs = untraced + traced
    else:
        jobs = run.measure(args.seconds)
        metrics, extra = end_to_end(run, setup_s, jobs)
    shutil.rmtree(WORK, ignore_errors=True)
    record.update({
        "job_s": [t for t, _ in jobs],
        "items_per_job": jobs[0][1].items,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "quality": run.quality,
        "hashes": run.reference,
        "errors": run.errors,
    })
    RESULTS.mkdir(exist_ok=True)
    suffix = "-tiny" if run.tiny else ""
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for error in run.errors:
        print(error, file=sys.stderr)
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"{args.workload:<10} {k:<40} {v:>14.6g} {u}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(seed: int, seconds: float, size: str) -> tuple[bool, list[dict]]:
    """Every workload untraced then traced, each in its own process."""
    ok, runs = True, []
    for name in WORKLOAD_ORDER:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--size", size]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            runs.append({"workload": name, "trace": trace, **result})
    return ok, runs


def selfcheck() -> int:
    """Tiny runs of every workload checked against BENCHMARK.json, and a
    checkout without `src/` must fail without printing a result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOAD_ORDER):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    ok, runs = run_all(seed=1, seconds=1, size="tiny")
    if not ok:
        problems.append("a tiny run failed or was incorrect")
    for r in runs:
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        if got != wanted[r["trace"]]:
            problems.append(f"{r['workload']} trace={r['trace']}: metrics "
                            f"{sorted(set(got) ^ set(wanted[r['trace']]))} differ from BENCHMARK.json")
        if not all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                   for v in r["metrics"].values()):
            problems.append(f"{r['workload']} trace={r['trace']}: a value is not a finite number")
        if r["attempted"] < 1:
            problems.append(f"{r['workload']} trace={r['trace']}: no job attempted")
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(spec["command"] + ["--workload", "convoy", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(WORK, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without src/ did not fail")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_ORDER)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--report", action="store_true",
                        help="run every workload, untraced and traced, and print every metric")
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny runs of every workload, checked against BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.report:
        ok, _ = run_all(args.seed, args.seconds, args.size)
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
