"""Per-layer tracing from outside the package.

:func:`install` wraps the public function of each ``siqrng`` layer, in every
loaded ``siqrng`` module that holds it, with a recorder of spans.  A span
is (name, layer, start, end, parent, run id); spans live in memory until
the run ends.  Counts are taken at the same boundaries from the arguments
and results.  A function a later version renames or removes is skipped,
so the trace degrades to fewer spans instead of failing.

A layer's busy time is the time covered by its outermost spans; its self
time is the sum over its spans of the span minus its direct children.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter

LAYERS = ("cli", "pipeline", "photonic_sim", "squash_sample", "estimation",
          "extractor", "randtest", "fileio", "seeds")

# layer -> public functions wrapped; "Class.method" patches the class
TRACED = {
    "cli": ("cmd_simulate", "cmd_tally", "cmd_estimate", "cmd_extract", "cmd_test",
            "cmd_pipeline"),
    "pipeline": ("run_protocol_session", "run_sweep", "choose_basis_plan"),
    "photonic_sim": ("run_session",),
    "squash_sample": ("plan_basis_positions", "squash_and_tally"),
    "estimation": ("estimate_session",),
    "extractor": ("extract_session",),
    "randtest": ("run_battery", "compare_raw_vs_final"),
    "fileio": ("write_bit_file", "write_click_file", "write_json", "atomic_write_bytes",
               "read_bit_file", "read_click_file", "read_json"),
    "seeds": ("SeedSource.take_bits",),
}

CLI_STEPS = ("pipeline", "simulate", "tally", "estimate", "extract", "test")

# the consumer a seed draw is charged to: nearest enclosing span of these
SEED_CONSUMERS = {
    "squash_sample.plan_basis_positions": "seeds.basis_bits",
    "squash_sample.squash_and_tally": "seeds.double_click_bits",
    "extractor.extract_session": "seeds.toeplitz_bits",
}

# per-layer metrics: name -> unit; every traced run reports all of them, and a
# layer a workload never calls reads 0 there.  What each should move:
#   squash_sample.plan_*            wall_s on active_sweep, wall_s and
#                                   session_ms_* on adversarial_batch; nothing
#                                   on the passive ones
#   pipeline.choose_basis_plan_s    wall_s and peak_rss_mb on passive_session
#                                   (the passive per-pulse float draw)
#   photonic_sim.*, squash_and_tally_s, events
#                                   wall_s on passive_session and staged_cli
#   estimation.*                    at ~10 us a call, only session_ms_p50 on
#                                   adversarial_batch, and there only a little
# (session_ms_p50/p99 and certified bits per second are reported, not gated)
#   extractor.*                     wall_s, certified bits per second and
#                                   peak_rss_mb on passive_session and staged_cli;
#                                   about zero on active_sweep, never called by
#                                   adversarial_batch
#   randtest.*                      wall_s on passive_session and staged_cli
#   fileio.*                        wall_s on staged_cli, and on passive_session
#                                   through its writes
#   cli.<subcommand>_s              wall_s on staged_cli
#   seeds.*                         reported, not gated; one hash per session
#                                   raises toeplitz_bits by design
PER_LAYER = {
    **{f"{layer}.busy_s": "s" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"cli.{step}_s": "s" for step in CLI_STEPS},
    "pipeline.run_protocol_session_s": "s",
    "pipeline.run_sweep_s": "s",
    "pipeline.choose_basis_plan_s": "s",
    "photonic_sim.run_session_s": "s",
    "photonic_sim.pulses": "count",
    "squash_sample.plan_basis_positions_s": "s",
    "squash_sample.plan_calls": "count",
    "squash_sample.plan_accept_ratio": "ratio",
    "squash_sample.squash_and_tally_s": "s",
    "squash_sample.events": "count",
    "estimation.estimate_session_s": "s",
    "estimation.calls": "count",
    "estimation.aborts": "count",
    "extractor.extract_session_s": "s",
    "extractor.input_bits": "bits",
    "extractor.output_bits": "bits",
    "extractor.yield": "ratio",
    "extractor.blocks": "count",
    "randtest.run_battery_s": "s",
    "randtest.compare_raw_vs_final_s": "s",
    "randtest.bits_tested": "bits",
    "fileio.write_s": "s",
    "fileio.bytes_written": "bytes",
    "fileio.read_s": "s",
    "fileio.bytes_read": "bytes",
    "seeds.basis_bits": "bits",
    "seeds.double_click_bits": "bits",
    "seeds.toeplitz_bits": "bits",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "run", "start", "end")

    def __init__(self, id, name, layer, parent, run):
        self.id, self.name, self.layer, self.parent, self.run = id, name, layer, parent, run
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.run = 0
        self._stack: list[Span] = []

    def start_run(self, run: int):
        self.run = run
        self.counts[run] = Counter()

    def call(self, layer, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, parent.id if parent else None, self.run)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        self._count(span, args, result)
        return result

    def _count(self, span: Span, args, result):
        c = self.counts[self.run]
        name = span.name
        if name == "photonic_sim.run_session":
            c["photonic_sim.pulses"] += len(result)
        elif name == "squash_sample.plan_basis_positions":
            c["squash_sample.plan_calls"] += 1
        elif name == "squash_sample.squash_and_tally":
            c["squash_sample.events"] += result.n
        elif name == "estimation.estimate_session":
            c["estimation.calls"] += 1
            c["estimation.aborts"] += bool(result.abort)
        elif name == "extractor.extract_session":
            c["extractor.input_bits"] += len(args[0])
            c["extractor.output_bits"] += len(result[0])
            c["extractor.blocks"] += result[2].get("n_blocks", 1)
        elif name == "randtest.run_battery":
            c["randtest.bits_tested"] += len(args[0])
        elif name == "randtest.compare_raw_vs_final":
            c["randtest.bits_tested"] += len(args[0]) + len(args[1])
        elif name == "fileio.atomic_write_bytes":
            c["fileio.bytes_written"] += len(args[1])
        elif name.startswith("fileio.read_"):
            c["fileio.bytes_read"] += os.path.getsize(args[0])
        elif name == "seeds.SeedSource.take_bits":
            self._count_seed(span, args[1], c)

    def _count_seed(self, span: Span, bits: int, c: Counter):
        parent = span.parent
        while parent is not None:
            owner = self.spans[parent]
            if owner.name in SEED_CONSUMERS:
                c[SEED_CONSUMERS[owner.name]] += bits
                if owner.name == "squash_sample.plan_basis_positions":
                    c["squash_sample.plan_windows"] += 1
                return
            parent = owner.parent


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "siqrng" or key.startswith("siqrng."))]
    undo = []
    for layer, functions in TRACED.items():
        home = sys.modules.get(f"siqrng.{layer}")
        if home is None:
            continue
        for function in functions:
            span_name = f"{layer}.{function}"
            if "." in function:
                cls_name, method = function.split(".")
                cls = getattr(home, cls_name, None)
                fn = getattr(cls, method, None) if cls is not None else None
                if fn is None:
                    continue
                undo.append((cls, method, fn))
                setattr(cls, method, _wrap(tracer, layer, span_name, fn))
                continue
            fn = getattr(home, function, None)
            if fn is None:
                continue
            wrapped = _wrap(tracer, layer, span_name, fn)
            for module in modules:
                if getattr(module, function, None) is fn:
                    undo.append((module, function, fn))
                    setattr(module, function, wrapped)

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall


def run_metrics(tracer: Tracer, run: int) -> dict[str, float]:
    """Per-layer busy and self times, function times and counts of one run."""
    spans = [s for s in tracer.spans if s.run == run]
    by_id = {s.id: s for s in spans}
    child_time = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    m = Counter()
    for s in spans:
        m[f"{s.layer}.self_s"] += s.seconds - child_time[s.id]
        function = s.name.split(".", 1)[1]
        if not _inside(s, by_id, lambda owner: owner.layer == s.layer):
            m[f"{s.layer}.busy_s"] += s.seconds
            if s.layer == "fileio":
                m["fileio.read_s" if function.startswith("read_") else "fileio.write_s"] += s.seconds
            elif s.layer == "cli":
                m[f"cli.{function.removeprefix('cmd_')}_s"] += s.seconds
        if s.layer not in ("cli", "fileio") and not _inside(
                s, by_id, lambda owner: owner.name == s.name):
            m[f"{s.name}_s"] += s.seconds
    counts = tracer.counts.get(run, Counter())
    m.update(counts)
    m["trace.spans"] = len(spans)
    if counts["squash_sample.plan_windows"]:
        m["squash_sample.plan_accept_ratio"] = (
            counts["squash_sample.plan_calls"] / counts["squash_sample.plan_windows"])
    if counts["extractor.input_bits"]:
        m["extractor.yield"] = counts["extractor.output_bits"] / counts["extractor.input_bits"]
    return m


def _inside(span: Span, by_id: dict, match) -> bool:
    """Whether any enclosing span satisfies ``match``."""
    parent = span.parent
    while parent is not None:
        owner = by_id[parent]
        if match(owner):
            return True
        parent = owner.parent
    return False


def per_layer_metrics(tracer: Tracer, untraced_wall: list[float],
                      traced_wall: list[float]) -> dict:
    """Median over the traced runs of every per-layer metric, plus the overhead."""
    per_run = [run_metrics(tracer, run) for run in tracer.counts]
    values = {name: float(statistics.median(m.get(name, 0.0) for m in per_run))
              for name in PER_LAYER}
    untraced = statistics.median(untraced_wall)
    traced = statistics.median(traced_wall)
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    return values
