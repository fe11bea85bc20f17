"""The three benchmark workloads: inputs, closed-loop runs and output checks.

Every workload is driven by one caller that issues its next request only
after the previous one returned (a closed loop with a single client).
Frames come from ``cyldet.synthetic`` and depend on the benchmark seed
alone; the program sees only the generated frames or the KITTI tree.
"""

import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from io import StringIO
from time import perf_counter

import layers
from pace import Pace
from spans import Tracer, aggregate

from cyldet import cli, evalbench, kitti, pipeline, synthetic

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")

DEFAULT_SEED = 0
# Oracle noise of the ROADMAP baseline: recall and AP stay below 1, and
# some proposals are dropped, so failure counting is exercised.
NOISE = {"dims_noise_sigma": 0.1, "yaw_noise_sigma": 0.1}
SCATTER_VALUES = "0.1:0.9:0.1"
OBJECTNESS_VALUES = "0.05:0.95:0.05"
# r40 AP: on the r11 grid, AP jumps by about a tenth whenever recall crosses
# one of its steps, and near recall 0.8 that happens from seed to seed.
EVAL = evalbench.EvalConfig(ap_mode="r40")
MIN_SAMPLES = 100       # p90 then has at least 10 samples beyond it
MIN_REPEATS = 2         # runs of every cli_split step
CLI_STEPS = ("setup", "detect", "sweep_scatter", "library", "sweep_objectness")
SLICES = 3              # pieces of an in-memory pass, see closed_loop
MAX_MEASURE_S = 120.0   # hard stop that keeps a run inside its time limit
# Printed in the report but not BENCHMARK.json metrics: frames_per_s is
# frames / detect_wall_s, the same measurement, and frame_fail_ratio is
# carried by the attempted and failed counts of the JSON line.
REPORT_ONLY = ("frames_per_s", "frame_fail_ratio")
# cyldet detect runs serially.  With --jobs 2 its GIL-bound thread pool
# on two vCPUs gives walls that jump between two modes (2.7 s and 4.4 s on
# one 20-frame tree in one run), far wider than any bound could resolve.
JOBS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    strata: tuple              # car counts, cycled frame by frame
    objectness_threshold: float
    sweep_frames: int          # frames the in-memory sweeps run over
    trace_frames: int          # frames a traced run detects untraced and traced
    canary_frames: int         # default-seed frames checked on every run
    make_kwargs: dict = field(default_factory=dict)

    @property
    def config(self):
        return pipeline.PipelineConfig(
            objectness_threshold=self.objectness_threshold)


# Car counts are stratified (each count in turn) rather than drawn per
# frame: the mix is the same uniform 1..5 that make_frames draws, but the
# total work of a frame set no longer varies from seed to seed.
WORKLOADS = {
    w.name: w for w in (
        Workload("sparse", frames=150, strata=(1, 2, 3, 4, 5),
                 objectness_threshold=0.25, sweep_frames=8,
                 trace_frames=50, canary_frames=5),
        Workload("dense", frames=40, strata=(8,),
                 objectness_threshold=0.05, sweep_frames=2,
                 trace_frames=12, canary_frames=2,
                 make_kwargs={"ground_points": 16800,
                              "z_range": (8.0, 45.0)}),
        Workload("cli_split", frames=30, strata=(1, 2, 3, 4, 5),
                 objectness_threshold=0.25, sweep_frames=0,
                 trace_frames=0, canary_frames=5,
                 make_kwargs={"ground_points": 58000}),
    )
}


def generate(wl, seed, n):
    """n frames for a workload; the first k frames do not depend on n."""
    per_stratum = -(-n // len(wl.strata))
    groups = [
        synthetic.make_frames(per_stratum, pipeline.derive_seed(seed, cars),
                              cars_per_frame=(cars, cars), **wl.make_kwargs)
        for cars in wl.strata
    ]
    picked = [groups[i % len(groups)][i // len(groups)] for i in range(n)]
    return [replace(f, frame_id=f"{i:06d}") for i, f in enumerate(picked)]


def grid(spec):
    start, stop, step = (float(v) for v in spec.split(":"))
    count = int(round((stop - start) / step)) + 1
    return [round(start + i * step, 10) for i in range(count)]


def predictors():
    return pipeline.oracle_predictors(pipeline.OracleConfig(**NOISE))


# ---------------------------------------------------------------- checks

def document_text(frame_id, detections):
    return "".join(pipeline.format_detection(frame_id, d) + "\n"
                   for d in detections)


def fingerprint(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def _fields(det):
    b = det.box2d_source
    return (b.xmin, b.ymin, b.xmax, b.ymax, *det.box3d.center,
            *det.box3d.dims, det.box3d.yaw, det.objectness, det.confidence)


def round_trips(path, frame_id, detections):
    """The document at path parses back to the given detections."""
    parsed = pipeline.read_detections(path)
    if len(parsed) != len(detections):
        return False
    for (fid, cls, got), want in zip(parsed, detections):
        if fid != frame_id or cls != "Car":
            return False
        if max(abs(a - b) for a, b in zip(_fields(got), _fields(want))) > 1e-6:
            return False
    return True


def recorded(workload):
    with open(FINGERPRINTS, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


class Checks:
    """Named pass/fail results; the run is correct when all pass.  A name
    checked more than once fails if any of its checks failed."""

    def __init__(self):
        self.results = {}

    def __call__(self, name, ok):
        self.results[name] = self.results.get(name, True) and bool(ok)
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)

    @property
    def ok(self):
        return all(self.results.values())


def check_canary(wl, checks, tracer=None):
    """Detect the first default-seed frames and compare with the recorded
    fingerprint; with a tracer, the detection runs traced."""
    frames = generate(wl, DEFAULT_SEED, wl.canary_frames)
    preds = predictors()
    with layers.installed(tracer, wl.objectness_threshold):
        if tracer is not None:
            preds = layers.wrap_predictors(tracer, preds, wl.objectness_threshold)
        texts = [document_text(f.frame_id,
                               pipeline.detect_frame(f, preds, wl.config))
                 for f in frames]
    got = fingerprint(texts)
    checks("canary_fingerprint", got == recorded(wl.name).get("canary"))
    return got


def check_sweeps(checks, scatter_rows, objectness_rows):
    checks("sweep_scatter_rows", len(scatter_rows) == len(grid(SCATTER_VALUES)))
    checks("sweep_objectness_rows",
           len(objectness_rows) == len(grid(OBJECTNESS_VALUES)))
    rows = list(scatter_rows) + list(objectness_rows)
    checks("sweep_recall_bounded", all(0.0 <= r[1] <= 1.0 for r in rows))
    nested = all(b[1] <= a[1] and b[2] <= a[2]
                 for a, b in zip(objectness_rows, objectness_rows[1:]))
    checks("sweep_objectness_nested", nested)


# ------------------------------------------------------------- measuring

def latency_summary(latencies):
    ms = [1e3 * t for t in latencies]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def closed_loop(frames, preds, config, seconds, between, pace):
    """Detect frame after frame, in passes over the whole set, until at
    least `seconds` have gone, MIN_SAMPLES frames are timed and one pass
    is complete; the run stops at the end of a piece.  A pass is cut into
    SLICES pieces and ends with evaluate_detections.  The reference kernel
    runs once after every frame, and the piece's times are scaled by the
    pace of its kernel runs.  between() runs after every piece, outside
    the pass's wall time, so that repeats of every measured operation
    spread evenly over the run.  between() may replace the contents of
    `frames`.

    Returns per-frame latencies and complete-pass walls (s, at reference
    speed), the detections of every pass (None for a frame that raised),
    the first pass's evaluation, the results of between() and the number
    of frames that raised."""
    latencies, walls, passes, extras = [], [], [], []
    stats, failed = None, 0
    cuts = [len(frames) * k // SLICES for k in range(SLICES + 1)]
    start = perf_counter()
    while True:
        pass_s, results = 0.0, []
        passes.append(results)
        for lo, hi in zip(cuts, cuts[1:]):
            since, piece, kernel_s = len(pace.samples), [], 0.0
            piece_start = perf_counter()
            for frame in frames[lo:hi]:
                t0 = perf_counter()
                try:
                    dets = pipeline.detect_frame(frame, preds, config)
                except Exception as exc:  # a frame that raises is counted, not fatal
                    print(f"frame {frame.frame_id} raised {exc!r}", file=sys.stderr)
                    dets, failed = None, failed + 1
                else:
                    piece.append(perf_counter() - t0)
                results.append(dets)
                kernel_s += pace.tick()
            if hi == len(frames):
                pass_stats = evalbench.evaluate_detections(
                    [(d or [], f.labels) for d, f in zip(results, frames)], EVAL)
                stats = stats or pass_stats
            scale = pace.scale(since)
            pass_s += (perf_counter() - piece_start - kernel_s) * scale
            latencies += [t * scale for t in piece]
            extras.append(between())
            if hi == len(frames):
                walls.append(pass_s)
            elapsed = perf_counter() - start
            if elapsed >= MAX_MEASURE_S and not walls:
                raise RuntimeError(f"no complete pass within {MAX_MEASURE_S} s")
            if (walls and elapsed >= seconds and len(latencies) >= MIN_SAMPLES
                    or elapsed >= MAX_MEASURE_S):
                return latencies, walls, passes, stats, extras, failed


def sweep_scatter(frames, preds, config):
    return evalbench.sweep_scatter(frames, preds.monocular,
                                   grid(SCATTER_VALUES), config)


def sweep_objectness(frames, preds, config):
    return evalbench.sweep_objectness(frames, preds, grid(OBJECTNESS_VALUES),
                                      config)


def _passes_agree(passes, ids):
    """(every pass gives the first pass's documents, those documents)."""
    first = [document_text(fid, d or []) for fid, d in zip(ids, passes[0])]
    for later in passes[1:]:
        for i, dets in enumerate(later):
            if document_text(ids[i], dets or []) != first[i]:
                return False, first
    return True, first


def run_memory(wl, seed, seconds):
    """Untraced sparse / dense run: end-to-end metrics and output checks."""
    checks = Checks()
    pace = Pace()
    frames, setup_s = pace.timed(lambda: generate(wl, seed, wl.frames))
    setups = [setup_s]
    preds, config = predictors(), wl.config
    pipeline.detect_frame(frames[0], preds, config)          # warm-up, untimed

    windows = itertools.count()

    def window(j):
        """Window j of sweep_frames frames; windows tile the set in turn."""
        return [frames[(j * wl.sweep_frames + i) % len(frames)]
                for i in range(wl.sweep_frames)]

    def between():
        """Both sweeps over the next window of frames, then set-up again:
        the frame set is dropped and regenerated in place, so later pieces
        detect the new copy and passes_identical also checks that set-up
        is repeatable.  The window moves on each time, so the sweep
        times are a median over much of the frame set."""
        sub = window(next(windows))
        scatter, scatter_s = pace.timed(lambda: sweep_scatter(sub, preds, config))
        objectness, objectness_s = pace.timed(
            lambda: sweep_objectness(sub, preds, config))
        frames.clear()
        setups.append(pace.timed(
            lambda: frames.extend(generate(wl, seed, wl.frames)))[1])
        return scatter, objectness, scatter_s, objectness_s

    latencies, walls, passes, stats, sweeps, failed = closed_loop(
        frames, preds, config, seconds, between, pace)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    agree, texts = _passes_agree(passes, [f.frame_id for f in frames])
    checks("passes_identical", agree)
    for rows in sweeps:
        check_sweeps(checks, *rows[:2])
    again = tuple(sweep(window(0), preds, config)
                  for sweep in (sweep_scatter, sweep_objectness))
    checks("sweeps_identical", again == sweeps[0][:2])
    docs = os.path.join(OUT, f"{wl.name}-documents")
    shutil.rmtree(docs, ignore_errors=True)
    os.makedirs(docs)
    ok = True
    for frame, dets in zip(frames, passes[0]):
        path = os.path.join(docs, frame.frame_id + ".txt")
        pipeline.write_detections(path, frame.frame_id, dets or [])
        ok = ok and round_trips(path, frame.frame_id, dets or [])
    shutil.rmtree(docs)
    checks("documents_round_trip", ok)
    full = fingerprint(texts)
    if seed == DEFAULT_SEED:
        checks("full_fingerprint", full == recorded(wl.name).get("full"))
    canary = check_canary(wl, checks)

    p50, p90 = latency_summary(latencies)
    pass_s = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "frame_ms_p50": (p50, "ms"),
        "frame_ms_p90": (p90, "ms"),
        "frames_per_s": (len(frames) / pass_s, "1/s"),
        "detect_wall_s": (pass_s, "s"),
        "sweep_scatter_s": (statistics.median(s[2] for s in sweeps), "s"),
        "sweep_objectness_s": (statistics.median(s[3] for s in sweeps), "s"),
        "peak_rss_mb": (rss, "MB"),
        "recall": (stats["recall"], "ratio"),
        "ap": (stats["ap"], "ratio"),
    }
    attempted = sum(len(p) for p in passes)
    samples = {"frame_ms": len(latencies), "passes": len(walls),
               "frames_per_pass": len(frames), "sweeps": len(sweeps),
               "sweep_frames": wl.sweep_frames, "setups": len(setups),
               "kernel_ms": pace.kernel_ms}
    repeats = {"setup": setups, "pass": walls,
               "sweep_scatter": [s[2] for s in sweeps],
               "sweep_objectness": [s[3] for s in sweeps]}
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "samples": samples, "checks": checks, "fingerprint": full,
        "canary": canary, "repeats": repeats,
    }


def timed_pair(tracer, objectness_threshold, call, traced_first):
    """call(False) unwrapped and call(True) with the layers wrapped, back to
    back.  Callers alternate traced_first so that drift in machine speed
    falls on both sides alike.  Returns {traced: (seconds, result)}."""
    out = {}
    for traced in ((True, False) if traced_first else (False, True)):
        with layers.installed(tracer if traced else None, objectness_threshold):
            start = perf_counter()
            result = call(traced)
            out[traced] = (perf_counter() - start, result)
    return out


def _layer_metrics(tracer, spans_before, pairs):
    """Per-layer metrics from every span and count (set-up included), plus
    the trace's own figures over the timed pairs."""
    metrics = layers.per_layer(aggregate(tracer.spans), tracer.counts)
    spans = tracer.spans[spans_before:]
    frames, frame_s, frame_self_s = aggregate(spans).get(
        "pipeline.detect_frame", (0, 0.0, 0.0))
    untraced = sum(p[False][0] for p in pairs)
    traced = sum(p[True][0] for p in pairs)
    metrics.update({
        "trace.frames": (frames, "count"),
        "trace.spans": (len(spans), "count"),
        "trace.wall_ms": (1e3 * traced, "ms"),
        "trace.untraced_wall_ms": (1e3 * untraced, "ms"),
        "trace.overhead_ms": (1e3 * (traced - untraced), "ms"),
        "trace.overhead_ratio": ((traced - untraced) / untraced, "ratio"),
        "trace.detect_frame_ms": (1e3 * frame_s, "ms"),
        "trace.layer_share": (1.0 - frame_self_s / frame_s if frame_s else 0.0,
                              "ratio"),
    })
    return metrics


def trace_memory(wl, seed):
    """Traced sparse / dense run.  Each frame, the evaluation and the sweeps
    run once untraced and once traced, back to back; per-layer metrics come
    from the traced calls, the overhead from the paired times."""
    checks = Checks()
    tracer = Tracer()
    threshold, config = wl.objectness_threshold, wl.config
    with layers.installed(tracer, threshold):
        frames = generate(wl, seed, wl.frames)
    plain = predictors()
    preds = {False: plain,
             True: layers.wrap_predictors(tracer, plain, threshold)}
    pipeline.detect_frame(frames[0], plain, config)           # warm-up
    work = frames[:wl.trace_frames]
    spans_before = len(tracer.spans)

    pairs = [timed_pair(tracer, threshold,
                        lambda t, f=f: pipeline.detect_frame(f, preds[t], config),
                        i % 2 == 1)
             for i, f in enumerate(work)]
    dets = {t: [p[t][1] for p in pairs] for t in (False, True)}
    pairs.append(timed_pair(
        tracer, threshold,
        lambda t: evalbench.evaluate_detections(
            [(d, f.labels) for d, f in zip(dets[t], work)], EVAL),
        len(work) % 2 == 1))
    stats = {t: pairs[-1][t][1] for t in (False, True)}
    pairs.append(timed_pair(
        tracer, threshold,
        lambda t: tuple(sweep(frames[:wl.sweep_frames], preds[t], config)
                        for sweep in (sweep_scatter, sweep_objectness)),
        len(work) % 2 == 0))
    sweeps = {t: pairs[-1][t][1] for t in (False, True)}

    texts = {t: [document_text(f.frame_id, d) for f, d in zip(work, dets[t])]
             for t in (False, True)}
    checks("traced_fingerprint_matches",
           fingerprint(texts[False]) == fingerprint(texts[True]))
    summary = {t: tuple(stats[t][k] for k in ("tp", "fp", "fn", "recall", "ap"))
               for t in (False, True)}
    checks("traced_evaluation_matches", summary[False] == summary[True])
    checks("traced_sweeps_match", sweeps[False] == sweeps[True])
    metrics = _layer_metrics(tracer, spans_before, pairs)
    check_canary(wl, checks, tracer=Tracer())
    return {"metrics": metrics, "attempted": len(work) * 2, "failed": 0,
            "checks": checks, "tracer": tracer,
            "fingerprint": fingerprint(texts[True]),
            "samples": {"trace_frames": len(work),
                        "sweep_frames": wl.sweep_frames}}


# ------------------------------------------------------------- cli_split

def _cli_commands(wl, root, out):
    common = ["--dataset-root", root, "--split", "synth.txt",
              "--dims-noise", str(NOISE["dims_noise_sigma"]),
              "--yaw-noise", str(NOISE["yaw_noise_sigma"]),
              "--objectness-threshold", str(wl.objectness_threshold),
              "--ap-mode", EVAL.ap_mode]
    return [
        ("detect", ["detect", "--jobs", str(JOBS), *common,
                    "--output-dir", os.path.join(out, "detect")]),
        ("sweep_scatter", ["sweep", "scatter", "--values", SCATTER_VALUES,
                           *common, "--output-dir", os.path.join(out, "scatter")]),
        ("sweep_objectness", ["sweep", "objectness", "--values",
                              OBJECTNESS_VALUES, *common,
                              "--output-dir", os.path.join(out, "objectness")]),
    ]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path):
    """Run argv to completion; returns (exit code, wall s, peak RSS MB of
    that child alone).  Output goes to log_path, not to the benchmark's."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return [tuple(float(v) for v in line.split(",")) for line in lines]


def _read_summary(path):
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    return {k: float(v) for k, v in zip(tokens[::2], tokens[1::2])}


def _read_documents(det_dir, ids):
    """{frame id: text} for every document present."""
    texts = {}
    for fid in ids:
        path = os.path.join(det_dir, fid + ".txt")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                texts[fid] = fh.read()
    return texts


def _read_output(name, out_dir, ids):
    """What one command wrote to its --output-dir: (summary, {frame id:
    document}) for detect, the CSV rows for a sweep."""
    if name == "detect":
        return (_read_summary(os.path.join(out_dir, "summary.txt")),
                _read_documents(os.path.join(out_dir, "detections"), ids))
    return _read_csv(os.path.join(out_dir, name + ".csv"))


def _check_cli_outputs(checks, out, ids):
    """Read one run of the three commands; returns (summary, documents, rows)."""
    summary, docs = _read_output("detect", os.path.join(out, "detect"), ids)
    checks("summary_frames", summary.get("frames") == len(ids))
    scatter = _read_output("sweep_scatter", os.path.join(out, "scatter"), ids)
    objectness = _read_output("sweep_objectness",
                              os.path.join(out, "objectness"), ids)
    check_sweeps(checks, scatter, objectness)
    return summary, docs, (scatter, objectness)


def _last_json(log_path):
    with open(log_path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read().splitlines()[-1])


def detect_split(root, ids, preds, config, pace):
    """detect_frame on every frame of the tree, loading one frame at a time
    so that the split never enters this process; the reference kernel runs
    after every frame.  Returns the per-frame latencies (s, at reference
    speed), the detections (None for a frame that raised) and the number
    of frames that raised."""
    latencies, detections, failed = [], [], 0
    since = len(pace.samples)
    for fid in ids:
        frame = kitti.load_frame(root, fid)
        t0 = perf_counter()
        try:
            dets = pipeline.detect_frame(frame, preds, config)
        except Exception as exc:  # a frame that raises is counted, not fatal
            print(f"frame {fid} raised {exc!r}", file=sys.stderr)
            dets, failed = None, failed + 1
        else:
            latencies.append(perf_counter() - t0)
        detections.append(dets)
        pace.tick()
    scale = pace.scale(since)
    return [t * scale for t in latencies], detections, failed


def run_cli(wl, seed, seconds):
    """Untraced cli_split run: the steps of CLI_STEPS in turn, until at
    least `seconds` have gone and every step has run MIN_REPEATS times.
    `setup` writes the tree, and `detect` and the sweeps run the commands,
    each in a process of its own; `library` detects the same frames in
    process.  Each operation thus repeats spread over the run, and the
    benchmark process never holds the split, so the children's peak RSS
    is their own."""
    checks = Checks()
    work = os.path.join(OUT, "cli_split")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    root = os.path.join(work, "kitti")
    preds, config, pace = predictors(), wl.config, Pace()
    times = {step: [] for step in CLI_STEPS}
    outputs, latencies, passes = {}, [], []
    rss, loop_failed, start = 0.0, 0, perf_counter()
    try:
        for n, step in enumerate(itertools.cycle(CLI_STEPS)):
            step_start = perf_counter()
            log = os.path.join(work, step + ".log")
            if step == "setup":
                rc, _, _ = run_child([sys.executable, os.path.join(BENCH_DIR, "make_split.py"),
                                      "--root", root, "--seed", str(seed)], log)
                checks("setup_exit_0", rc == 0)
                times[step].append(_last_json(log)["setup_s"])
                ids = kitti.read_split_ids(os.path.join(root, "synth.txt"))
            elif step == "library":
                if not passes:                                # warm-up
                    pipeline.detect_frame(kitti.load_frame(root, ids[0]), preds, config)
                lat, dets, raised = detect_split(root, ids, preds, config, pace)
                latencies += lat
                loop_failed += raised
                passes.append(dets)
                times[step].append(sum(lat))
            else:
                out = os.path.join(work, f"step{n}")
                argv = dict(_cli_commands(wl, root, out))[step]
                rc, _, child_rss = run_child(
                    [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), *argv], log)
                result = _last_json(log)
                checks(f"{step}_exit_0", rc == 0 and result["exit"] == 0)
                times[step].append(result["wall_s"] * result["scale"])
                rss = max(rss, child_rss)
                got = _read_output(step, argv[argv.index("--output-dir") + 1], ids)
                first = outputs.setdefault(step, got)
                checks(f"{step}_repeatable", got == first)
                if got is first and step == "detect":
                    det_dir = os.path.join(argv[argv.index("--output-dir") + 1],
                                           "detections")
                else:
                    shutil.rmtree(out)
            elapsed, took = perf_counter() - start, perf_counter() - step_start
            if (all(len(t) >= MIN_REPEATS for t in times.values())
                    and elapsed >= seconds
                    or elapsed + took > MAX_MEASURE_S):       # no room for another
                break

        summary, docs = outputs["detect"]
        checks("summary_frames", summary.get("frames") == len(ids))
        check_sweeps(checks, outputs["sweep_scatter"], outputs["sweep_objectness"])
        checks("documents_round_trip", all(
            round_trips(os.path.join(det_dir, fid + ".txt"), fid, d or [])
            for fid, d in zip(ids, passes[0]) if fid in docs))
        failed = len(ids) - len(docs)

        # The library's detections must equal the CLI's documents byte for byte.
        agree, texts = _passes_agree(passes, ids)
        checks("passes_identical", agree)
        checks("cli_matches_library", [docs.get(fid) for fid in ids] == texts)
        full = fingerprint(docs.get(fid, "") for fid in ids)
        if seed == DEFAULT_SEED:
            checks("full_fingerprint", full == recorded(wl.name).get("full"))
        canary = check_canary(wl, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    p50, p90 = latency_summary(latencies)
    detect_s = statistics.median(times["detect"])
    metrics = {
        "setup_s": (statistics.median(times["setup"]), "s"),
        "frame_ms_p50": (p50, "ms"),
        "frame_ms_p90": (p90, "ms"),
        "frames_per_s": (len(ids) / detect_s, "1/s"),
        "detect_wall_s": (detect_s, "s"),
        "sweep_scatter_s": (statistics.median(times["sweep_scatter"]), "s"),
        "sweep_objectness_s": (statistics.median(times["sweep_objectness"]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "recall": (summary["recall"], "ratio"),
        "ap": (summary["ap"], "ratio"),
    }
    runs = {step: len(t) for step, t in times.items()}
    attempted = len(ids) * runs["detect"] + sum(len(p) for p in passes)
    samples = {"frame_ms": len(latencies), **{f"{k}_runs": v for k, v in runs.items()},
               "split_frames": len(ids), "jobs": JOBS, "kernel_ms": pace.kernel_ms}
    return {
        "metrics": metrics, "attempted": attempted,
        "failed": failed * runs["detect"] + loop_failed,
        "samples": samples, "checks": checks, "fingerprint": full,
        "canary": canary, "repeats": times,
    }


def _cli_main(argv):
    """cyldet.cli.main in this process, with its console output captured."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return cli.main(argv)


def trace_cli(wl, seed):
    """Traced cli_split run: each command through cyldet.cli.main in
    process, once untraced and once traced, back to back, so that the
    wrappers see the commands' calls."""
    checks = Checks()
    work = os.path.join(OUT, "cli_split-trace")
    shutil.rmtree(work, ignore_errors=True)
    root = os.path.join(work, "kitti")
    tracer, threshold = Tracer(), wl.objectness_threshold
    try:
        with layers.installed(tracer, threshold):
            synthetic.write_dataset(root, generate(wl, seed, wl.frames))
        ids = kitti.read_split_ids(os.path.join(root, "synth.txt"))
        spans_before = len(tracer.spans)
        outs = {t: os.path.join(work, "traced" if t else "untraced")
                for t in (False, True)}
        commands = {t: _cli_commands(wl, root, outs[t]) for t in (False, True)}
        pairs = [timed_pair(tracer, threshold,
                            lambda t, i=i: _cli_main(commands[t][i][1]),
                            i % 2 == 1)
                 for i in range(len(commands[False]))]
        metrics = _layer_metrics(tracer, spans_before, pairs)
        checks("exit_codes_0", all(p[t][1] == 0 for p in pairs for t in p))
        outputs = {t: _check_cli_outputs(checks, outs[t], ids) for t in (False, True)}
        checks("traced_outputs_match", outputs[False] == outputs[True])
        check_canary(wl, checks, tracer=Tracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {"metrics": metrics, "attempted": 2 * len(ids),
            "failed": sum(len(ids) - len(o[1]) for o in outputs.values()),
            "checks": checks, "tracer": tracer,
            "samples": {"split_frames": len(ids), "jobs": JOBS}}


def run(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    if name == "cli_split":
        return trace_cli(wl, seed) if trace else run_cli(wl, seed, seconds)
    return trace_memory(wl, seed) if trace else run_memory(wl, seed, seconds)
