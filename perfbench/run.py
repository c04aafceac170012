"""City-scale benchmark of geotag-facade: annotate, trace and eval.

    python3 perfbench/run.py --workload city --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Each workload is an offline batch run driven from this one process (the
only extra threads are the program's own). Inputs are generated from
``--seed`` by ``citygen`` (untimed, cached under ``.perfbench/``). A run
repeats set-up, the ``trace`` command, the library annotate step and
eval until ``--seconds`` have passed, at least twice, checks every
output and reports medians of timings scaled by a calibration kernel
run between samples (see ``Clock``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` one untraced and one traced repetition run, and the
line holds the per-layer metrics from the spans and counters recorded
around the package's layer functions (see ``tracing.py``). Spans are
written to ``.perfbench/traces/``. See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from citygen import RADIUS_M, InputSpec, ensure_inputs  # noqa: E402
from tracing import Tracer, layer_unit  # noqa: E402

MIN_REPEATS = 2
SETUPS_PER_REPEAT = 4  # spread over the run, so they see what it sees
# The calibration kernel's wall time on the reference host: timings are
# reported as they would read on a host where the kernel takes this long.
REFERENCE_KERNEL_S = 0.1
TRACE_PANOS = 32  # the trace command runs on 32 panoramas, every nth
# Trace and eval are short: each gives three samples per repetition.
SHORT_STEP_RUNS = 3
ACCURACY_FLOOR = 0.95  # the acceptance suite's floor
IOU_THR = 0.8

NOISY = dict(shift_frac=0.02, scale_frac=0.02, fp_rate=0.1)
SPECS = {
    "full": {
        "city": InputSpec(corridors=10, buildings_per_corridor=200,
                          cameras_per_corridor=25, **NOISY),
        "street-fine": InputSpec(corridors=1, buildings_per_corridor=150,
                                 cameras_per_corridor=200),
    },
    "tiny": {
        "city": InputSpec(corridors=2, buildings_per_corridor=24,
                          cameras_per_corridor=6, **NOISY),
        "street-fine": InputSpec(corridors=1, buildings_per_corridor=16,
                                 cameras_per_corridor=8),
    },
}
END_TO_END = {"panos_per_s": "panoramas/s", "trace_s": "s", "eval_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB", "accuracy": "ratio",
              "recall": "ratio"}


def run_config(workload: str, seed: int):
    from geotag_facade.config import RunConfig
    if workload == "street-fine":
        return RunConfig(radius_m=RADIUS_M, step_deg=0.1,
                         threshold_mode="fixed", fixed_threshold=0.5,
                         batch_size=64, seed=seed)
    return RunConfig(radius_m=RADIUS_M, step_deg=1.0,
                     threshold_mode="adaptive", batch_size=64, seed=seed)


# ---------------------------------------------------------------------------
# Set-up: load, validate and hash the input files
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    paths: dict
    mapping: object
    footprints: object
    panos: object
    dets: object
    gt: list
    widths: dict
    hashes: dict


def load_inputs(d: Path) -> Inputs:
    from geotag_facade import cocoio, ingest
    paths = {"footprints": d / "footprints.geojson",
             "metas": d / "metas.jsonl", "mapping": d / "mapping.json",
             "detections": d / "detections.json", "gt": d / "gt.json"}
    mapping = ingest.load_category_mapping(paths["mapping"])
    footprints = ingest.load_footprints(paths["footprints"], mapping)
    panos = ingest.load_panorama_meta(paths["metas"])
    dets = ingest.load_detections(paths["detections"])
    gt, widths, _, _ = cocoio.read_coco(paths["gt"])
    hashes = cocoio.hash_inputs({k: paths[k] for k in
                                 ("footprints", "metas", "mapping",
                                  "detections")})
    return Inputs(paths, mapping, footprints, panos, dets, gt, widths, hashes)


# ---------------------------------------------------------------------------
# One repetition of a workload
# ---------------------------------------------------------------------------

@dataclass
class Repeat:
    digest: str           # sha256 over every output file
    annotations: list     # the COCO annotation records
    skipped: int          # panoramas skipped or failed by the program
    errors: list          # problems found while running


def calibration_kernel() -> float:
    """A fixed piece of pure-Python work: rays against a closed
    polyline, nearest hit per ray. Returns its wall time, 0.06-0.15 s on
    the shared 2-vCPU x86 VM the benchmark was tuned on, as load varies."""
    t0 = time.perf_counter()
    pts = [(math.cos(i * 0.37) * 40.0, math.sin(i * 0.91) * 40.0)
           for i in range(400)]
    for k in range(480):
        dx, dy = math.cos(k * 0.2618), math.sin(k * 0.2618)
        hits = []
        for (ax, ay), (bx, by) in zip(pts, pts[1:]):
            ex, ey = bx - ax, by - ay
            den = dx * ey - dy * ex
            if abs(den) < 1e-12:
                continue
            t = (ax * ey - ay * ex) / den
            u = (ax * dy - ay * dx) / den
            if t > 0 and 0 <= u <= 1:
                hits.append(t)
        min(hits, default=None)
    return time.perf_counter() - t0


class Clock:
    """Timing samples, each also scaled to the reference host speed.

    The calibration kernel runs after every sample, so each sample lies
    between two kernel runs; the sample's scaled value is its wall time
    times REFERENCE_KERNEL_S over the mean of those two kernel times.
    With ``calibrated=False`` (the traced run) no kernel runs and only
    wall times are kept.
    """

    def __init__(self, calibrated=True):
        self.calibrated = calibrated
        self.raw, self.scaled, self.kernel = {}, {}, []
        if calibrated:
            self.kernel.append(calibration_kernel())

    def add(self, key, seconds):
        self.raw.setdefault(key, []).append(seconds)
        if self.calibrated:
            self.kernel.append(calibration_kernel())
            speed = 2.0 * REFERENCE_KERNEL_S / sum(self.kernel[-2:])
            self.scaled.setdefault(key, []).append(seconds * speed)


@contextlib.contextmanager
def _timed(clock, key, tracer, span_name):
    """Time the block as one sample of ``key``."""
    ctx = tracer.span(span_name) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with ctx:
        yield
    clock.add(key, time.perf_counter() - t0)


def run_repeat(inp: Inputs, config, out: Path, trace_argv: list, clock,
               tracer, runs: int) -> Repeat:
    """The ``trace`` command on the trace slice, then annotate every
    panorama and write the results, then evaluate; trace and eval run
    ``runs`` times."""
    from geotag_facade import cli, cocoio, matcher, metrics
    errors = []
    for _ in range(runs):
        with contextlib.redirect_stdout(io.StringIO()):
            with _timed(clock, "trace_s", tracer, "cli.trace"):
                rc = cli.main([*trace_argv, "--out", str(out / "trace")])
        if rc != 0:
            errors.append(f"`trace` exited with {rc}")
    with _timed(clock, "annotate_s", tracer, "bench.annotate"):
        anns, report = matcher.generate_coarse_annotations(
            inp.panos.metas, inp.footprints, inp.dets, config)
        cocoio.write_coco(out / "coarse_annotations.json", inp.panos.metas,
                          anns, inp.mapping,
                          info={"config": config.to_dict(),
                                "input_hashes": inp.hashes})
        run_report = report.to_dict()
        run_report["input_hashes"] = inp.hashes
        cocoio.write_json(out / "run_report.json", run_report)
    for _ in range(runs):
        with _timed(clock, "eval_s", tracer, "bench.eval"):
            preds = [metrics.EvalBox(pano_id=a.pano_id, x=a.x, y=a.y, w=a.w,
                                     h=a.h, category=a.category,
                                     score=a.score) for a in anns]
            acc = metrics.coarse_accuracy(preds, inp.gt, iou_thr=IOU_THR,
                                          width_by_pano=inp.widths)
            summary = metrics.coco_summary(preds, inp.gt,
                                           width_by_pano=inp.widths)
            cocoio.write_json(out / "eval.json", {"accuracy": acc.to_dict(),
                                                  "ap": summary})
        trace_report = _read_json(out / "trace" / "trace_report.json")
    skipped = len(report.skipped_panoramas) + (
        len(trace_report.get("skipped", [])) if trace_report else TRACE_PANOS)
    return Repeat(_digest(out), _coco_annotations(out), skipped, errors)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() \
        else {}


def _coco_annotations(d: Path) -> list:
    return _read_json(d / "coarse_annotations.json").get("annotations", [])


def _digest(d: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in d.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(d)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def quality(inp: Inputs, annotations: list) -> dict:
    """Accuracy at IoU 0.8 with the matching label, and recall: the same
    test with ground truth and predictions swapped."""
    from geotag_facade.metrics import EvalBox, coarse_accuracy
    pano_of = {i + 1: m.pano_id for i, m in enumerate(inp.panos.metas)}
    preds = [EvalBox(pano_id=pano_of[a["image_id"]], x=a["bbox"][0],
                     y=a["bbox"][1], w=a["bbox"][2], h=a["bbox"][3],
                     category=a["category_id"], score=a.get("score"))
             for a in annotations]
    acc = coarse_accuracy(preds, inp.gt, IOU_THR, inp.widths).accuracy
    rec = coarse_accuracy(inp.gt, preds, IOU_THR, inp.widths).accuracy
    return {"accuracy": acc or 0.0, "recall": rec or 0.0}


def cli_annotations(inp: Inputs, config, out: Path) -> list:
    """The ``annotate`` command's annotation list for the same inputs
    and seed, fanned out over the workers the environment sets."""
    from geotag_facade import cli
    p = {k: str(v) for k, v in inp.paths.items()}
    argv = ["annotate", "--footprints", p["footprints"], "--metas",
            p["metas"], "--mapping", p["mapping"], "--detections",
            p["detections"], "--radius", str(config.radius_m),
            "--step-deg", str(config.step_deg), "--threshold-mode",
            config.threshold_mode, "--fixed-threshold",
            str(config.fixed_threshold), "--batch-size",
            str(config.batch_size), "--seed", str(config.seed),
            "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return _coco_annotations(out) if rc == 0 else []


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def gate(workload: str, rep: Repeat, q: dict, first_digest: str,
         reference: list | None) -> list:
    """Every problem with one repetition's outputs; empty means correct."""
    problems = list(rep.errors)
    if rep.skipped:
        problems.append(f"{rep.skipped} panoramas skipped")
    if rep.digest != first_digest:
        problems.append("outputs differ from the first repetition")
    if workload == "street-fine":
        if q["accuracy"] != 1.0 or q["recall"] != 1.0:
            problems.append(f"zero-noise accuracy {q['accuracy']} and "
                            f"recall {q['recall']}, expected 1.0 and 1.0")
    elif q["accuracy"] < ACCURACY_FLOOR:
        problems.append(f"accuracy {q['accuracy']:.4f} below "
                        f"{ACCURACY_FLOOR}")
    if reference is not None and rep.annotations != reference:
        problems.append("CLI annotations differ from the library path's")
    return problems


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def worker_env(n: int):
    """The CLI reads its worker count from the environment."""
    old = os.environ.get("GEOTAG_FACADE_WORKERS")
    os.environ["GEOTAG_FACADE_WORKERS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["GEOTAG_FACADE_WORKERS"]
        else:
            os.environ["GEOTAG_FACADE_WORKERS"] = old


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One workload at one seed: inputs, repetitions and the gate."""

    def __init__(self, workload, seed, size):
        self.workload, self.seed = workload, seed
        self.config = run_config(workload, seed)
        self.input_dir = ensure_inputs(SPECS[size][workload], seed)
        self.sizes = _read_json(self.input_dir / "sizes.json")
        self.out = WORK / "work" / f"{workload}-{os.getpid()}"
        # the trace command fans out over every core; annotate is serial
        self.workers = nproc()
        self.first_digest = None
        self.reference = None
        self.attempted = self.failed = 0
        self.problems = []
        self.clock = Clock(calibrated=False)  # measure() replaces it

    def setup(self):
        t0 = time.perf_counter()
        self.inp = load_inputs(self.input_dir)
        self.clock.add("setup_s", time.perf_counter() - t0)

    def prepare(self):
        """Write the trace slice and take the ``annotate`` command's
        annotations as the reference every repetition must equal."""
        self.out.mkdir(parents=True)
        lines = self.inp.paths["metas"].read_text(
            encoding="utf-8").splitlines(keepends=True)
        stride = max(1, len(lines) // TRACE_PANOS)  # every street in it
        trace_metas = self.out / "trace_metas.jsonl"
        trace_metas.write_text("".join(lines[::stride][:TRACE_PANOS]),
                               encoding="utf-8")
        p = {k: str(v) for k, v in self.inp.paths.items()}
        self.trace_argv = [
            "trace", "--footprints", p["footprints"], "--metas",
            str(trace_metas), "--mapping", p["mapping"], "--radius",
            str(self.config.radius_m), "--step-deg",
            str(self.config.step_deg)]
        self.reference = cli_annotations(self.inp, self.config,
                                         self.out / "reference")

    def execute(self, tracer=None, runs=SHORT_STEP_RUNS) -> Repeat:
        """One timed repetition of the workload."""
        rep_dir = self.out / "repeat"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        gc.collect()  # no collector debt carried in from earlier work
        return run_repeat(self.inp, self.config, rep_dir, self.trace_argv,
                          self.clock, tracer, runs)

    def check(self, rep: Repeat) -> dict:
        """Gate one repetition; returns its accuracy and recall."""
        q = quality(self.inp, rep.annotations)
        if self.first_digest is None:
            self.first_digest = rep.digest
        problems = gate(self.workload, rep, q, self.first_digest,
                        self.reference)
        n = self.sizes["panoramas"]
        self.attempted += n
        self.failed += n if problems else 0
        self.problems += problems
        return q

    def env(self, seconds: int) -> dict:
        import numpy
        sizes = dict(self.sizes)
        sizes["rays_per_panorama"] = round(360.0 / self.config.step_deg)
        sizes["trace_panoramas"] = min(TRACE_PANOS, sizes["panoramas"])
        return {"workload": self.workload, "seed": self.seed,
                "nproc": nproc(), "workers": self.workers,
                "python": sys.version.split()[0],
                "numpy": numpy.__version__, "commit": git_commit(),
                "sizes": sizes, "seconds": seconds,
                "samples": {k: [round(v, 6) for v in vs]
                            for k, vs in self.clock.raw.items()},
                "kernel_s": [round(v, 6) for v in self.clock.kernel]}


def measure(bench: Bench, seconds: int) -> dict:
    """Repeat the workload for about ``seconds``: a repetition starts only
    if one as long as the mean so far still fits, and at least two run."""
    bench.setup()
    bench.prepare()
    bench.clock = Clock()
    quals = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(quals) >= MIN_REPEATS and \
                elapsed * (len(quals) + 1) / len(quals) > seconds:
            break
        for _ in range(SETUPS_PER_REPEAT):
            bench.setup()
        quals.append(bench.check(bench.execute()))
    med = {k: statistics.median(v) for k, v in bench.clock.scaled.items()}
    values = {
        "panos_per_s": bench.sizes["panoramas"] / med["annotate_s"],
        "trace_s": med["trace_s"],
        "eval_s": med["eval_s"],
        "setup_s": med["setup_s"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": quals[0]["accuracy"],
        "recall": quals[0]["recall"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def measure_traced(bench: Bench, seconds: int) -> dict:
    """One untraced and one traced set-up plus repetition, trace and
    eval run once in each; the gate compares their outputs."""
    bench.setup()
    bench.prepare()
    t0 = time.perf_counter()
    bench.setup()
    plain = bench.execute(runs=1)
    plain_wall = time.perf_counter() - t0
    tracer = Tracer()
    with tracer.patched():
        t0 = time.perf_counter()
        bench.setup()
        traced = bench.execute(tracer, runs=1)
        traced_wall = time.perf_counter() - t0
    bench.check(plain)
    bench.check(traced)
    run_report = _read_json(bench.out / "repeat" / "run_report.json")
    layer = tracer.layer_metrics(run_report, bench.workers)
    layer["trace.overhead_s"] = traced_wall - plain_wall
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_dir / f"{bench.workload}-s{bench.seed}.json",
                {"env": bench.env(seconds), "metrics": layer})
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}


def run_workload(args) -> dict:
    bench = Bench(args.workload, args.seed, args.size)
    try:
        with worker_env(bench.workers):
            metrics = (measure_traced if args.trace else measure)(
                bench, args.seconds)
    finally:
        shutil.rmtree(bench.out, ignore_errors=True)
    print("env " + json.dumps(bench.env(args.seconds),
                              sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:34s} {m['value']:>14.6g} "
              f"{m['unit']}")
    for key, values in bench.clock.raw.items():
        print(f"{args.workload:12s} {'wall median ' + key:34s} "
              f"{statistics.median(values):>14.6g} s")
    share = bench.failed / bench.attempted
    print(f"{args.workload:12s} {'failed_share':34s} {share:>14.6g} ratio")
    for p in dict.fromkeys(bench.problems):
        print(f"CHECK FAILED [{args.workload}]: {p}", file=sys.stderr)
    return {"correct": not bench.problems and bench.failed == 0,
            "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in turn, each in its own process so that peak RSS
    stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPECS[args.size]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--size",
               args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed with exit code "
                             f"{proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v
                                 for k, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*SPECS["full"], "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SPECS), default="full",
                    help="tiny is for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "geotag_facade" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
