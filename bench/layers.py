"""Which fairtrack names the traced run wraps, and the per-layer metrics.

Every wrap rebinds a public function under the name its calling module
uses (``fairtrack.tracker.*``, ``fairtrack.metrics.*``, ``fairtrack.cli.*``),
so the program itself is unchanged.  A layer is the module a span's name
starts with; ``bench`` is the benchmark's own time inside an iteration.
"""

from __future__ import annotations

import statistics
import time
import weakref

import numpy as np

import fairtrack.cli
import fairtrack.metrics
import fairtrack.tracker

LAYERS = ("sim", "tracker", "kalman", "assignment", "geometry", "metrics",
          "encoding", "decoding", "tensors", "mot_io", "cli")

KALMAN_NAMES = ("kf_init", "kf_predict", "kf_update", "gating_distance",
                "state_to_box")


class StepClock:
    """Times every ``OnlineTracker.step`` call, in both runs.

    The CLI constructs its own tracker, so timing the method on the class
    is the one way to see step latency inside ``cmd_track``.  After each
    step, outside its timing, the host speed is probed if a probe is due.
    """

    def __init__(self, speed):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.failed = 0
        cls = self._cls = fairtrack.tracker.OnlineTracker
        self._orig = orig = cls.__dict__["step"]
        perf = time.perf_counter

        def step(tracker, *args, **kwargs):
            t = perf()
            try:
                return orig(tracker, *args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            finally:
                self.starts.append(t)
                self.times.append(perf() - t)
                speed.tick()
        cls.step = step

    def close(self):
        self._cls.step = self._orig


def install(tracer) -> None:
    """Wrap each layer's entry points for the traced run."""
    gate = fairtrack.tracker.TrackerConfig().gate_chi2
    births_seen = weakref.WeakKeyDictionary()

    def after_step(span, args, result):
        tracker = args[0]
        seen = births_seen.setdefault(tracker, set())
        ids = {tid for tid, _ in result}
        span.count("tracker.births", len(ids - seen))
        seen |= ids
        span.count("tracker.live_tracks", len(tracker.tracks))

    def after_gating(span, args, result):
        span.count("kalman.gating_pairs", len(result))
        span.count("kalman.gate_passed", sum(1 for d in result if d <= gate))

    def after_hungarian(span, args, result):
        n, m = np.shape(args[0])
        span.count("assignment.cells", n * m)
        span.count("assignment.matches", len(result[0]))
        span.count("assignment.possible", min(n, m))

    def after_generate(span, args, result):
        span.count("sim.detections", sum(len(v) for v in result.dets.values()))

    def after_encode(span, args, result):
        span.count("encoding.objects", result.num_objects)
        span.count("encoding.collisions", result.collisions)
        span.count("encoding.rejected", result.rejected)

    def after_decode(span, args, result):
        span.count("decoding.detections", len(result))

    def after_to_bytes(span, args, result):
        span.count("tensors.bytes", len(result))

    def after_parse(span, args, result):
        span.count("mot_io.records", sum(len(v) for v in result.values()))

    tracer.wrap_span(fairtrack.tracker.OnlineTracker, "step", "tracker.step",
                     after_step)
    for name in KALMAN_NAMES:
        tracer.wrap_hot(fairtrack.tracker, name, "kalman",
                        after_gating if name == "gating_distance" else None)
    for mod in (fairtrack.tracker, fairtrack.metrics):
        tracer.wrap_span(mod, "hungarian", "assignment.hungarian", after_hungarian)
    for mod in (fairtrack.tracker, fairtrack.metrics, fairtrack.cli):
        tracer.wrap_hot(mod, "iou", "geometry")

    cli = fairtrack.cli
    for name in ("clear_mot", "idf1", "detection_ap"):
        tracer.wrap_span(cli, name, f"metrics.{name}")
    tracer.wrap_span(cli, "generate", "sim.generate", after_generate)
    tracer.wrap_span(cli, "encode_targets", "encoding.encode_targets", after_encode)
    tracer.wrap_span(cli, "decode", "decoding.decode", after_decode)
    tracer.wrap_span(cli, "tensor_to_bytes", "tensors.write", after_to_bytes)
    tracer.wrap_span(cli, "read_tensor", "tensors.read")
    tracer.wrap_span(cli, "parse_mot", "mot_io.parse_mot", after_parse)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer(spans, runs: int, untraced_wall: list[float], setup: dict) -> dict:
    """Per-layer metrics, as (value, unit), averaged per traced iteration.

    Times are means per iteration so that the layer self times plus
    ``trace.remainder_s`` add up exactly to ``trace.wall_s``.
    """
    durations: dict[str, list[float]] = {}
    self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    hot_calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.duration)
        self_s[s.layer] = self_s.get(s.layer, 0.0) + s.self_s
        for layer, (calls, secs) in s.hot.items():
            self_s[layer] = self_s.get(layer, 0.0) + secs
            hot_calls[layer] = hot_calls.get(layer, 0) + calls
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v

    def per_run(total):
        return total / runs

    def busy(name):
        return per_run(sum(durations.get(name, [])))

    def count(name):
        return per_run(counts.get(name, 0))

    steps = durations.get("tracker.step", [])
    wall = busy("bench.iteration")
    untraced = statistics.fmean(untraced_wall)
    if "sim.generate" in durations:
        gen_s, dets = busy("sim.generate"), count("sim.detections")
    else:  # library workloads generate once, in set-up
        gen_s, dets = setup["raw_generate_s"], setup["detections"]

    m = {
        "sim.generate_s": (gen_s, "s"),
        "sim.detections": (dets, "count"),
        "tracker.step_s": (busy("tracker.step"), "s"),
        "tracker.step_ms_p50": (_median_ms(steps), "ms"),
        "tracker.live_tracks_mean": (_ratio(counts.get("tracker.live_tracks", 0),
                                            len(steps)), "count"),
        "tracker.births": (count("tracker.births"), "count"),
        "kalman.calls": (per_run(hot_calls.get("kalman", 0)), "count"),
        "kalman.gating_pairs": (count("kalman.gating_pairs"), "count"),
        "kalman.gate_pass_ratio": (_ratio(counts.get("kalman.gate_passed", 0),
                                          counts.get("kalman.gating_pairs", 0)), "ratio"),
        "assignment.calls": (per_run(len(durations.get("assignment.hungarian", []))),
                             "count"),
        "assignment.cells": (count("assignment.cells"), "count"),
        "assignment.match_ratio": (_ratio(counts.get("assignment.matches", 0),
                                          counts.get("assignment.possible", 0)), "ratio"),
        "geometry.iou_calls": (per_run(hot_calls.get("geometry", 0)), "count"),
        "geometry.iou_s": (per_run(self_s["geometry"]), "s"),
        "metrics.clear_mot_s": (busy("metrics.clear_mot"), "s"),
        "metrics.idf1_s": (busy("metrics.idf1"), "s"),
        "metrics.detection_ap_s": (busy("metrics.detection_ap"), "s"),
        "encoding.encode_targets_ms_p50": (
            _median_ms(durations.get("encoding.encode_targets", [])), "ms"),
        "encoding.busy_s": (busy("encoding.encode_targets"), "s"),
        "encoding.objects": (count("encoding.objects"), "count"),
        "encoding.collisions": (count("encoding.collisions"), "count"),
        "encoding.rejected": (count("encoding.rejected"), "count"),
        "decoding.decode_ms_p50": (_median_ms(durations.get("decoding.decode", [])), "ms"),
        "decoding.busy_s": (busy("decoding.decode"), "s"),
        "decoding.detections": (count("decoding.detections"), "count"),
        "decoding.recovery_ratio": (_ratio(counts.get("decoding.detections", 0),
                                           counts.get("encoding.objects", 0)), "ratio"),
        "tensors.write_s": (busy("tensors.write"), "s"),
        "tensors.read_s": (busy("tensors.read"), "s"),
        "tensors.bytes": (count("tensors.bytes"), "bytes"),
        "mot_io.parse_mot_s": (busy("mot_io.parse_mot"), "s"),
        "mot_io.records": (count("mot_io.records"), "count"),
        "cli.sim_s": (busy("cli.sim"), "s"),
        "cli.encode_s": (busy("cli.encode"), "s"),
        "cli.decode_s": (busy("cli.decode"), "s"),
        "cli.track_s": (busy("cli.track"), "s"),
        "cli.eval_s": (busy("cli.eval"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_run(self_s[layer]), "s")
    m["trace.remainder_s"] = (per_run(self_s["bench"]), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (wall - untraced, "s")
    return m
