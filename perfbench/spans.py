"""Per-layer tracing from outside the program.

`install` replaces public functions and methods of the freshly imported
`uwconvoy` modules with wrappers that record a span around each call. A
function is replaced in every `uwconvoy` module that holds a reference to it,
so `iou` is counted where `evaluation` and `sim` import it and `run_convoy`
where `cli` imports it. Spans are aggregated in memory as they close: calls,
total time and self time (total minus the time of child spans) per name, plus
the individual durations of the layers that report percentiles.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter, defaultdict


# spans whose individual durations are kept for percentiles
SAMPLED = {"sim.render", "mdpm.push"}

# (module, attribute) of every traced public function; the span name is
# "<module>.<attribute>"
FUNCTIONS = [
    ("sim", "run_convoy"),
    ("sim", "project_bbox"),
    ("sim", "noisy_detector"),
    ("sim", "step_follower"),
    ("servo", "servo_update"),
    ("fileio", "write_pgm"),
    ("fileio", "read_pgm"),
    ("fileio", "write_frame_dir"),
    ("fileio", "load_frame_dir"),
    ("fileio", "format_trace_csv"),
    ("fileio", "parse_annotations"),
    ("fileio", "parse_predictions"),
    ("fileio", "format_predictions"),
    ("fileio", "parse_config"),
    ("evaluation", "select_threshold"),
    ("evaluation", "classify_frames"),
    ("evaluation", "metrics_summary"),
    ("evaluation", "track_statistics"),
    ("evaluation", "histogram_report"),
]
# (module, class, method, span name) of every traced method
METHODS = [
    ("sim", "FootageScene", "render", "sim.render"),
    ("mdpm", "MdpmTracker", "push", "mdpm.push"),
]
# called about a million times per eval job: counted, not timed
COUNTED = [("geometry", "iou")]


class Tracer:
    """Span and counter aggregates for one traced phase of a run."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.samples_s: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()
        self.mdpm_grid = None  # sub-window grid of the last pushed frame
        self._child_s: list[float] = []  # one accumulator per open span

    def call(self, name: str, fn, args, kwargs):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - child
            if name in SAMPLED:
                self.samples_s[name].append(duration)

    def table(self) -> dict[str, dict[str, float]]:
        """Per-span aggregates, for the results file."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }


def _hooks(tracer: Tracer):
    """Counters derived from the arguments or result of a traced call."""
    pushes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    counts = tracer.counts

    def run_convoy(args, result):
        counts["sim.ticks"] += len(result.records)

    def noisy_detector(args, result):
        counts["sim.detector_fires"] += 1
        counts["sim.detections"] += result is not None

    def servo_update(args, result):
        counts["servo.stops"] += result[0].is_stop()

    def push(args, result):
        tracker = args[0]
        tracer.mdpm_grid = tracker.grid
        pushes[tracker] = pushes.get(tracker, 0) + 1
        if pushes[tracker] >= tracker.config.buffer_length:
            counts["mdpm.full_pushes"] += 1
        counts["mdpm.detections"] += result is not None

    def select_threshold(args, result):
        counts["evaluation.select_threshold.candidates"] += len(
            {box.p for _, box in args[1] if box is not None}
        )

    def write_pgm(args, result):
        counts["fileio.write_pgm.bytes"] += len(result)

    def read_pgm(args, result):
        counts["fileio.read_pgm.bytes"] += len(args[0])

    def format_trace_csv(args, result):
        counts["fileio.format_trace_csv.bytes"] += len(result)

    return {
        "sim.run_convoy": run_convoy,
        "sim.noisy_detector": noisy_detector,
        "servo.servo_update": servo_update,
        "mdpm.push": push,
        "evaluation.select_threshold": select_threshold,
        "fileio.write_pgm": write_pgm,
        "fileio.read_pgm": read_pgm,
        "fileio.format_trace_csv": format_trace_csv,
    }


def _replace_everywhere(fn, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "uwconvoy" or mod_name.startswith("uwconvoy."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)


def install(uw, tracer: Tracer) -> None:
    """Wrap the traced functions and methods of the imported package `uw`."""
    hooks = _hooks(tracer)

    def traced(name, fn):
        hook = hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    for module, attr in FUNCTIONS:
        fn = getattr(getattr(uw, module), attr)
        _replace_everywhere(fn, traced(f"{module}.{attr}", fn))
    for module, cls_name, method, name in METHODS:
        cls = getattr(getattr(uw, module), cls_name)
        setattr(cls, method, traced(name, getattr(cls, method)))
    for module, attr in COUNTED:
        fn = getattr(getattr(uw, module), attr)
        name = f"{module}.{attr}.calls"

        def counted(*args, _fn=fn, _name=name, **kwargs):
            tracer.counts[_name] += 1
            return _fn(*args, **kwargs)

        _replace_everywhere(fn, functools.wraps(fn)(counted))

    run_cli = uw.cli.run_cli

    @functools.wraps(run_cli)
    def cli_span(argv):
        return tracer.call(f"cli.{argv[0]}", run_cli, (argv,), {})

    uw.cli.run_cli = cli_span
