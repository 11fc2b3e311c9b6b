"""Spans and counters around tilevm's public functions, for the traced run.

Each wrapper replaces a function under the name its caller looks it up by
(a module or class attribute) and puts the original back on ``close``.  A
span records its name, start, end, parent span, request id and thread; the
spans stay in memory until the run writes them out.  Hot per-instruction
functions only count calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import struct
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tilevm import cli, device, encoder, fuser, graph, isa, oracle, tiler
from tilevm.isa import InstructionKind

QUEUES = ("scalar", "dma", "vector", "cube")
_RECORD = struct.Struct("<HH")  # Insn_ID, Insn_Len of every bytecode record


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int
    error: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # call counts and observed totals
        self.request: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[tuple[int, str]]] = {self._main: []}
        self._patches: list[tuple[object, str, object]] = []

    def _parent(self) -> int | None:
        """Innermost open span; a worker thread's root spans hang off the
        main thread's innermost open run_groups call."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack[-1][0]
        for sid, name in reversed(self._stacks[self._main]):
            if name.endswith("run_groups"):
                return sid
        return None

    def _open(self, name: str) -> tuple[int, int | None, int | None, float]:
        parent = self._parent()
        sid = next(self._ids)
        self._stacks[threading.get_ident()].append((sid, name))
        return sid, parent, self.request, perf_counter()

    def _close(self, opened, name: str, error: str | None) -> None:
        end = perf_counter()
        sid, parent, request, start = opened
        self._stacks[threading.get_ident()].pop()
        with self._lock:
            self.spans.append(
                Span(sid, name, start, end, parent, request, threading.get_ident(), error)
            )

    @contextmanager
    def span(self, name: str):
        opened = self._open(name)
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(opened, name, error)

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span per call; ``observe(result, args)`` sees each return."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(result, args)
            return result

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.add(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON: one complete event per span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 0,
                "tid": s.thread,
                "args": {"id": s.id, "parent": s.parent, "request": s.request, "error": s.error},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "counts": dict(self.counts)}))


def install(tracer: Tracer, cfg) -> None:
    """Wrap every layer boundary the benchmark's requests pass through."""
    cores = cfg.num_cores

    def groups_seen(groups, _args) -> None:
        for group in groups:
            tracer.add("fuser.groups")
            tracer.add("fuser.group_ops", len(group.ops))
            if group.flush_reason:
                tracer.add(f"fuser.flush.{group.flush_reason}")

    def tiled(tg, _args) -> None:
        tracer.add("tiler.tiles", tg.tiles)
        tracer.add("tiler.core_frac_sum", min(tg.tiles, cores) / cores)
        tracer.add("tiler.tilings")

    def compiled(program, _args) -> None:
        body, offset, insns = program.body, 0, 0
        while offset < len(body):
            offset += _RECORD.unpack_from(body, offset)[1]
            insns += 1
        tracer.add("encoder.code_bytes", program.header.code_size)
        tracer.add("encoder.insns", insns)

    def dispatched(stats, _args) -> None:
        tracer.add("device.dispatches")
        tracer.add("device.tiles", stats.tiles_executed)
        tracer.add("device.bytes_moved", stats.global_bytes_moved)
        tracer.add("device.decode_hidden", int(stats.decode_hidden))
        tracer.add("device.capacity", stats.makespan * cores)
        for kind, n in stats.instruction_counts.items():
            tracer.add("device.insns", n)
            tracer.add(f"device.insn.{kind}", n)
        for busy in stats.per_core_busy:
            for queue, t in busy.items():
                tracer.add(f"device.busy.{queue}", t)

    w = tracer.wrap
    # static requests: the benchmark looks these up on their modules
    w(fuser, "fuse_static", "fuser.fuse_static", groups_seen)
    w(encoder, "run_groups", "encoder.run_groups")
    w(oracle, "ref_execute", "oracle.ref_execute")
    w(oracle, "compare", "oracle.compare")
    w(graph, "decompose", "graph.decompose")
    # the stream replay: names _run_stream looks up in tilevm.cli
    w(cli, "cmd_run", "cli.cmd_run")
    w(cli, "run_groups", "encoder.run_groups")
    w(cli, "decompose", "graph.decompose")
    w(cli, "ref_execute", "oracle.ref_execute")
    w(cli, "compare", "oracle.compare")
    w(cli.FusionBuffer, "push", "fuser.push")
    w(cli.FusionBuffer, "flush", "fuser.flush", groups_seen)
    # run_groups and what it calls
    w(encoder, "tile_for_group", "tiler.tile_for_group", tiled)
    w(encoder, "compile_group", "encoder.compile_group", compiled)
    w(encoder, "encode_program", "isa.encode_program")
    w(encoder, "dispatch", "device.dispatch", dispatched)
    w(tiler, "dominant_shape", "graph.dominant_shape")
    w(tiler, "peak_live_count", "graph.peak_live_count")
    w(device, "simulate_timing", "device.simulate_timing")
    # per-instruction hot paths: counts only
    tracer.count_calls(device, "decode_instruction", "isa.decode_calls")
    tracer.count_calls(isa, "decode_instruction", "isa.decode_calls")
    tracer.count_calls(device.DeviceState, "read_global", "device.read_global_calls")


# --- per-layer metrics from the spans ---------------------------------------------


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _length(intervals) -> float:
    return sum(hi - lo for lo, hi in intervals)


def _overlap(a, b) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (ms over the traced pass) and counts."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total_ms(*names: str) -> float:
        """Time in the named spans, not counting one nested in another."""
        return 1e3 * sum(
            s.seconds
            for s in spans
            if s.name in names and (s.parent is None or by_id[s.parent].name not in names)
        )

    def self_ms(name: str, only=None) -> float:
        """Span time minus the part its child spans (those in ``only``) cover."""
        total = 0.0
        for s in spans:
            if s.name != name:
                continue
            kids = [k for k in children.get(s.id, []) if only is None or k.name in only]
            covered = _union((max(k.start, s.start), min(k.end, s.end)) for k in kids)
            total += s.seconds - _length(covered)
        return 1e3 * total

    wait = 0.0
    for s in spans:
        if s.name != "encoder.run_groups":
            continue
        kids = children.get(s.id, [])
        compiles = _union((k.start, k.end) for k in kids if k.name == "encoder.compile_group")
        dispatches = _union((k.start, k.end) for k in kids if k.name == "device.dispatch")
        wait += _length(compiles) - _overlap(compiles, dispatches)

    c = tracer.counts
    dispatches = max(c["device.dispatches"], 1)
    capacity = c["device.capacity"] or 1.0
    out = {
        "graph.decompose_ms": total_ms("graph.decompose"),
        "graph.analysis_ms": total_ms("graph.dominant_shape", "graph.peak_live_count"),
        "fuser.fuse_ms": total_ms("fuser.fuse_static", "fuser.push", "fuser.flush"),
        "fuser.groups": c["fuser.groups"],
        "fuser.ops_per_group": c["fuser.group_ops"] / max(c["fuser.groups"], 1),
        "tiler.tile_ms": total_ms("tiler.tile_for_group"),
        "tiler.tiles": c["tiler.tiles"],
        "tiler.core_frac": c["tiler.core_frac_sum"] / max(c["tiler.tilings"], 1),
        "encoder.compile_ms": total_ms("encoder.compile_group"),
        "encoder.code_bytes": c["encoder.code_bytes"],
        "encoder.insns": c["encoder.insns"],
        "encoder.run_groups_self_ms": self_ms("encoder.run_groups"),
        "encoder.compile_wait_ms": 1e3 * wait,
        "isa.encode_ms": total_ms("isa.encode_program"),
        "isa.decode_calls": c["isa.decode_calls"],
        "device.dispatch_ms": self_ms("device.dispatch", only={"device.simulate_timing"}),
        "device.timing_ms": total_ms("device.simulate_timing"),
        "device.read_global_calls": c["device.read_global_calls"],
        "device.insns": c["device.insns"],
        "device.tiles": c["device.tiles"],
        "device.decode_hidden_frac": c["device.decode_hidden"] / dispatches,
        "device.bytes_moved": c["device.bytes_moved"],
        "oracle.check_ms": total_ms("oracle.ref_execute", "oracle.compare"),
        "cli.replay_ms": self_ms("cli.cmd_run"),
    }
    for reason in ("host_read", "incompatible", "capacity", "end_of_stream"):
        out[f"fuser.flush.{reason}"] = c[f"fuser.flush.{reason}"]
    for kind in InstructionKind:
        out[f"device.insn.{kind.name}"] = c[f"device.insn.{kind.name}"]
    for queue in QUEUES:
        out[f"device.busy.{queue}"] = c[f"device.busy.{queue}"]
        out[f"device.util.{queue}"] = c[f"device.busy.{queue}"] / capacity
    return out
