#!/usr/bin/env python3
"""fairtrack benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload crowd_track --seed 1 --seconds 35 --trace 0

Imports the package from ``src/`` of the checkout that holds this file;
exits 2 without a result if it is not there.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` spends half the time untraced and half
traced and prints the per-layer metrics and the tracing overhead.
End-to-end timings are scaled to the reference host speed (see
hostspeed.py); the raw times go to the report file.  The last line of
standard output is the JSON result; the exit code is 1 when any operation
or output check failed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# The untraced run's result line carries exactly these (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "track_fps": "frames/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "mota": "ratio",
}
# Printed by name and unit but left out of the result line, which holds
# only metrics that are never 0 and steady from seed to seed: bytes are 0
# on the library workloads, error_rate is 0 on a correct run, and IDF1 and
# ID switches at 10 targets swing with where the occlusions fall.
REPORTED = {
    "bytes_written": "bytes",
    "idf1": "ratio",
    "id_switches": "count",
    "error_rate": "ratio",
}

SETUP_REPEATS = 5
# The child times the package import, then probes the host speed itself
# (after one warm-up call of the kernel), so that the import is scaled by
# the speed of the CPU it ran on, just after it ran.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import fairtrack, fairtrack.cli; dt = time.perf_counter() - t; "
                "import hostspeed; s = hostspeed.HostSpeed(); hostspeed.kernel(); "
                "[s.probe() for _ in range(hostspeed.MIN_PROBES)]; "
                "print(dt, s.slowdown(s.starts[0], s.starts[-1]))")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["crowd_track", "sparse_long", "cli_pipeline"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the smoke test of the benchmark itself")
    return p.parse_args(argv)


def pin_threads() -> dict:
    """One BLAS thread, and the CLI's default (1) encode/decode thread."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    previous = os.environ.pop("FAIRTRACK_THREADS", None)
    return {"blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "FAIRTRACK_THREADS": f"cleared (was {previous!r})"}


def git_revision() -> str:
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
    return "unknown (not a git checkout)"


def environment(pins: dict) -> dict:
    import numpy
    import scipy

    import fairtrack
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "fairtrack": fairtrack.__version__,
            "git_revision": git_revision(), "platform": platform.platform(), **pins}


def time_import() -> tuple[float, float]:
    """Package import time in a fresh interpreter (interpreter start
    excluded), and the host slowdown that interpreter measured after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    r = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=120, check=True)
    dt, slowdown = r.stdout.split()[-2:]
    return float(dt), float(slowdown)


def setup(wl, repeats: int, workdir: Path, speed) -> tuple[float, dict]:
    """Median import and median input generation, at reference host speed."""
    imports = [time_import() for _ in range(repeats)]
    gens = []
    for _ in range(repeats):
        speed.probe()
        t = time.perf_counter()
        info = wl.setup(workdir)
        gens.append((t, time.perf_counter()))
    speed.probe()
    info.update(
        import_s=statistics.median(dt / slowdown for dt, slowdown in imports),
        generate_s=statistics.median(speed.seconds(a, b) for a, b in gens),
        raw_import_s=statistics.median(dt for dt, _ in imports),
        raw_generate_s=statistics.median(b - a for a, b in gens))
    return info["import_s"] + info["generate_s"], info


def measure(wl, tracer, ops, clock, speed, seconds: float, workdir: Path) -> list:
    """Closed loop: whole iterations, back to back, within ``seconds``.

    At least one iteration runs; another starts only if it would still end
    in time, judged by the longest iteration so far.
    """
    its = []
    longest = 0.0
    start = time.perf_counter()
    while not its or time.perf_counter() - start + longest <= seconds:
        gc.collect()  # start each iteration without the previous one's garbage
        speed.tick()
        tracer.run = len(its)
        n0 = len(clock.times)
        t = time.perf_counter()
        it = wl.iterate(tracer, ops, workdir, speed)
        longest = max(longest, time.perf_counter() - t)
        it.steps = range(n0, len(clock.times))
        its.append(it)
    speed.probe()  # the last interval has probes on both sides
    return its


def step_tail(steps: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile ``pct`` of ``steps``, and the samples beyond it."""
    s = sorted(steps)
    k = min(max(math.ceil(pct / 100.0 * len(s)) - 1, 0), len(s) - 1)
    return s[k], len(s) - 1 - k


def timings(its, clock, seconds) -> dict:
    """Per-iteration timings, each interval measured by ``seconds(a, b)``.

    Frame steps are those of each iteration's first tracker run: all of
    them on the library workloads, the re-ID ``track`` call on the CLI.
    The CLI's IoU-only steps are about a third as long, and a median
    across both kinds would fall in the gap between them.
    """
    def total(intervals):
        return sum(seconds(a, b) for a, b in intervals)

    def first_run(it):
        a, b = it.track[0]
        return [i for i in it.steps if a <= clock.starts[i] <= b]
    return {
        "wall": [seconds(*it.wall) for it in its],
        "track_fps": [len(it.steps) / max(total(it.track), 1e-12) for it in its],
        "eval": [total(it.evals) for it in its],
        "steps": [seconds(clock.starts[i], clock.starts[i] + clock.times[i])
                  for it in its for i in first_run(it)] or [0.0],
    }


def end_to_end(its, setup_s: float, ops, tail_pct: float, clock,
               speed) -> tuple[dict, dict]:
    t = timings(its, clock, speed.seconds)
    steps = t["steps"]
    tail, beyond = step_tail(steps, tail_pct)
    first = its[0].quality
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(t["wall"]),
        "track_fps": statistics.median(t["track_fps"]),
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_tail": tail * 1e3,
        "eval_s": statistics.median(t["eval"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mota": first["mota"],
        "bytes_written": its[0].bytes_written,
        "idf1": first["idf1"],
        "id_switches": first["id_switches"],
        "error_rate": ops.failed / max(ops.attempted, 1),
    }
    notes = {"step_ms_tail": f"p{tail_pct:g} of {len(steps)} steps, {beyond} beyond",
             "step_ms_p50": f"{len(steps)} steps",
             "wall_s": f"median of {len(its)} iterations"}
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairtrack" / "__init__.py").is_file():
        print(f"bench: no fairtrack package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pins = pin_threads()  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(BENCH)]
    import fairtrack
    if not Path(fairtrack.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported fairtrack from {fairtrack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import hostspeed
    import layers
    import spans
    import workloads

    wl = workloads.make(args.workload, args.seed, args.tiny)
    ops = workloads.Ops()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    speed = hostspeed.HostSpeed()
    tracer = None
    try:
        setup_s, setup_info = setup(wl, 1 if args.tiny else SETUP_REPEATS, workdir, speed)
        clock = layers.StepClock(speed)
        try:
            seconds = args.seconds / 2 if args.trace else args.seconds
            untraced = measure(wl, spans.NullTracer(), ops, clock, speed, seconds, workdir)
            traced = []
            if args.trace:
                tracer = spans.Tracer()
                layers.install(tracer)
                speed.paused = True  # no probes inside the traced iterations
                try:
                    traced = measure(wl, tracer, ops, clock, speed, seconds, workdir)
                finally:
                    speed.paused = False
                    tracer.unwrap()
        finally:
            clock.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # frame steps are operations; so is every repeat's agreement with the first
    ops.attempted += len(clock.times)
    ops.failed += clock.failed
    if clock.failed:
        ops.failures.append(f"{clock.failed} of {len(clock.times)} frame steps raised")
    for i, it in enumerate(untraced + traced):
        ops.check(it.signature() == untraced[0].signature(),
                  f"iteration {i} gave {it.signature()}, first gave "
                  f"{untraced[0].signature()}")

    e2e, notes = end_to_end(untraced, setup_s, ops, wl.tail_pct, clock, speed)
    raw = timings(untraced, clock, lambda a, b: b - a - speed.probe_s(a, b))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "env": environment(pins), "setup": setup_info,
        "digests": untraced[0].digests,
        "host_speed": speed.summary(),
        "raw_s": {"wall_s": statistics.median(raw["wall"]),
                  "track_fps": statistics.median(raw["track_fps"]),
                  "step_ms_p50": statistics.median(raw["steps"]) * 1e3,
                  "eval_s": statistics.median(raw["eval"])},
        "stage_s": {k: statistics.median(sum(speed.seconds(a, b) for a, b in it.stages[k])
                                         for it in untraced)
                    for k in untraced[0].stages},
        "end_to_end": {k: {"value": v, "unit": (END_TO_END | REPORTED)[k],
                           **({"note": notes[k]} if k in notes else {})}
                       for k, v in e2e.items()},
        "failures": ops.failures,
    }
    print(f"fairtrack bench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} iterations={report['iterations']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print("digests " + json.dumps(report["digests"], sort_keys=True))
    print("host_speed " + json.dumps(report["host_speed"], sort_keys=True))
    print("raw_s " + json.dumps(report["raw_s"], sort_keys=True))
    for k, m in report["end_to_end"].items():
        print(f"  {k:<16} {m['value']:>16.6f} {m['unit']:<9} {m.get('note', '')}")

    if args.trace:
        layer = layers.per_layer(tracer.spans, len(traced),
                                 raw["wall"], setup_info)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans {spans_path} ({len(tracer.spans)} spans)")
        for k, m in report["per_layer"].items():
            print(f"  {k:<32} {m['value']:>16.6f} {m['unit']}")
        metrics = report["per_layer"]
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    samples = {"probes": [speed.starts, speed.times],
               "steps": [clock.starts, clock.times],
               "iterations": [{"wall": it.wall, "track": it.track, "evals": it.evals,
                               "steps": [it.steps.start, it.steps.stop]}
                              for it in untraced]}
    (OUT / f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(samples))
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    for f in ops.failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
