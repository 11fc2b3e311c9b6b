"""Drive the request sets through tilevm's public API and check the results.

Static requests go through ``fuser.fuse_static`` and ``encoder.run_groups``
on a fresh device, as ``tilevm run`` does.  The stream trace is replayed
in-process through ``cli.cmd_run --mode stream``; a request ends when the
CLI prints the result of its ``host_read``.  Only the checked pass runs the
oracle, and never inside a timed request.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import inf, prod
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import workloads
from tilevm import cli, encoder, fuser, oracle
from tilevm.device import DeviceState
from tilevm.graph import REDUCTION_KINDS
from tilevm.oracle import RefTensor
from tilevm.tiler import DeviceConfig

ORACLE_MISMATCH = "OracleMismatch"


@dataclass
class Outcome:
    """What the checked pass learned about one request."""

    error: str | None = None  # exception type name, or ORACLE_MISMATCH
    wrong: bool = False  # beyond even the worst-case rounding bound
    makespan: float = 0.0  # modeled, summed over the request's groups
    bound: float = 0.0  # modeled lower bound from the graph alone
    work: int = 0  # iteration-space elements; a matmul counts m*k*n
    compulsory_bytes: int = 0
    bytes_moved: int = 0  # modeled global traffic
    max_abs_err: float = 0.0


@dataclass
class PassResult:
    """One pass over the request set; a timed pass may stop at its deadline."""

    # by request index
    times: dict[int, float] = field(default_factory=dict)  # host seconds, failures too
    errors: dict[int, str | None] = field(default_factory=dict)  # exception type or None
    digests: dict[int, str] = field(default_factory=dict)  # hash of the request's outputs
    outcomes: list[Outcome] = field(default_factory=list)  # checked pass only
    groups: list = field(default_factory=list)  # checked pass: every fused group
    compile_s: list[float] = field(default_factory=list)  # per group, if timed here


def request_model(ops, g, cfg: DeviceConfig, external, written) -> tuple[float, int, int]:
    """(bound, work, compulsory bytes) of a set of basic ops.

    The bound is the largest of compulsory global bytes, vector elements and
    MACs, each at its DeviceConfig cost and spread over all cores.
    """
    vector = macs = work = 0
    for op in ops:
        if op.kind == "matmul":
            m, k = g.resolved_shape(op.inputs[0])
            n = g.resolved_shape(op.inputs[1])[1]
            macs += m * k * n
            work += m * k * n
            continue
        src = op.inputs[0] if op.kind in REDUCTION_KINDS else op.output
        elems = prod(g.resolved_shape(src))
        work += elems
        if op.kind != "copy":  # lowered as an alias, no vector work
            vector += elems
    nbytes = sum(
        prod(g.resolved_shape(t)) * g.tensors[t].dtype.nbytes
        for t in [*external, *written]
    )
    bound = max(
        nbytes * cfg.dma_cost_per_byte,
        vector * cfg.vector_cost_per_elem,
        macs * cfg.cube_cost_per_mac,
    ) / cfg.num_cores
    return bound, work, nbytes


def _accumulation_bound(g) -> float:
    """Worst-case f32 rounding error of the graph's largest matmul.

    A k-term dot product of values in [-1, 1] accumulated in f32 is off by
    at most k * u * k (u = 2**-24) in any summation order.  The CLI's fixed
    1e-5 tolerance is tighter than that once k reaches a few hundred, so a
    result outside the CLI rule but inside this bound is counted as failed
    (the CLI would report it so) but not as wrong.
    """
    ks = [g.resolved_shape(op.inputs[0])[1] for op in g.ops if op.is_matmul]
    return max((k * k * 2.0**-24 for k in ks), default=0.0)


def _digest(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.hexdigest()


COMPILE_REPEATS = 3


def compile_seconds(group, cfg: DeviceConfig) -> float:
    """Median host seconds of tile_for_group + compile_group; inf if it raises."""
    samples = []
    for _ in range(COMPILE_REPEATS):
        t0 = perf_counter()
        try:
            encoder.compile_group(group, encoder.tile_for_group(group, cfg), cfg)
        except Exception:  # a group that cannot compile ranks slowest
            return inf
        samples.append(perf_counter() - t0)
    return median(samples)


class StaticRunner:
    """Requests are whole graphs, each run on a fresh device."""

    divisible = True  # a timed pass may stop between requests

    def __init__(self, make, seed: int, cfg: DeviceConfig, out_dir: Path):
        self.make, self.seed, self.cfg = make, seed, cfg
        self.requests: list[workloads.StaticRequest] = []

    def build(self) -> None:
        self.requests = self.make(self.seed)

    @property
    def basic_ops(self) -> int:
        return sum(len(r.graph.ops) for r in self.requests)

    def warm_up(self) -> None:
        """Run the smallest request, so set-up time does not hinge on which
        shape the seed puts first."""
        def work(r) -> int:
            return request_model(r.graph.ops, r.graph, self.cfg, [], [])[1]

        req = min(self.requests, key=work)
        self._run_one(req, req.inputs())

    def _run_one(self, req, inputs):
        """(host seconds, groups, results, stats, error) of one request."""
        groups, results, stats, error = [], None, None, None
        t0 = perf_counter()
        try:
            groups = fuser.fuse_static(req.graph)
            device = DeviceState.from_config(self.cfg)
            results, stats = encoder.run_groups(groups, device, self.cfg, inputs, debug=True)
        except Exception as exc:  # counted as a failed request, by type
            error = type(exc).__name__
        return perf_counter() - t0, groups, results, stats, error

    def run_pass(
        self,
        check: bool,
        tracer=None,
        deadline: float = inf,
        time_compile: bool = False,
        reverse: bool = False,
    ) -> PassResult:
        res = PassResult()
        order = range(len(self.requests))
        for i in reversed(order) if reverse else order:
            req = self.requests[i]
            if perf_counter() > deadline:
                break
            inputs = req.inputs()
            if tracer is not None:
                tracer.request = i
            with tracer.span("request") if tracer is not None else nullcontext():
                seconds, groups, results, stats, error = self._run_one(req, inputs)
            res.times[i] = seconds
            res.errors[i] = error
            outputs = req.graph.outputs if results is not None else ()
            arrays = (results[t].tobytes() for t in outputs)
            res.digests[i] = _digest((error or "").encode(), *arrays)
            if check:
                res.groups.extend(groups)
                res.outcomes.append(self._check(req, inputs, results, stats, error))
            if time_compile:  # request by request, so the samples spread over the run
                res.compile_s.extend(compile_seconds(grp, self.cfg) for grp in groups)
        return res

    def _check(self, req, inputs, results, stats, error) -> Outcome:
        if error is not None:
            return Outcome(error)
        g = req.graph
        env = oracle.ref_execute(
            g, {t: RefTensor.from_array(a, g.tensors[t].dtype) for t, a in inputs.items()}
        )
        rel, abs_ = cli._tolerance_for(g)  # the rule `tilevm run --check` applies
        slack = _accumulation_bound(g)
        ok, wrong, max_err = True, False, 0.0
        for tid in g.outputs:
            actual = results[tid].astype(np.float64)
            report = oracle.compare(actual, env[tid].data, rel, abs_)
            max_err = max(max_err, report.max_abs_err)
            if not report.passed:
                ok = False
                wrong |= not oracle.compare(actual, env[tid].data, rel, abs_ + slack).passed
        bound, work, nbytes = request_model(g.ops, g, self.cfg, g.graph_input_ids(), g.outputs)
        return Outcome(
            None if ok else ORACLE_MISMATCH,
            wrong=wrong,
            makespan=sum(s.makespan for s in stats),
            bound=bound,
            work=work,
            compulsory_bytes=nbytes,
            bytes_moved=sum(s.global_bytes_moved for s in stats),
            max_abs_err=max_err,
        )


class _Timeline(io.TextIOBase):
    """The CLI's output stream; stamps the moment each host_read result prints."""

    def __init__(self, tracer=None):
        self.lines: list[str] = []
        self.reads: list[float] = []
        self.tracer = tracer

    def write(self, text: str) -> int:
        if text.startswith("host_read "):
            self.reads.append(perf_counter())
            if self.tracer is not None:
                self.tracer.request = len(self.reads)
        self.lines.append(text)
        return len(text)


class StreamRunner:
    """Requests are the host_read windows of one trace, replayed by the CLI."""

    divisible = False  # one pass is one CLI run

    def __init__(self, make, seed: int, cfg: DeviceConfig, out_dir: Path):
        self.make, self.seed, self.cfg = make, seed, cfg
        self.path = out_dir / f"stream-{seed}.jsonl"
        self.warm_path = out_dir / f"stream-{seed}-warm-up.jsonl"

    def build(self) -> None:
        self.trace = self.make(self.seed)
        self.trace.write(self.path)
        self.trace.prefix(3).write(self.warm_path)

    @property
    def basic_ops(self) -> int:
        return self.trace.basic_ops

    def _args(self, path: Path, check: bool):
        argv = ["run", str(path), "--mode", "stream", "--seed", str(self.seed)]
        return cli.build_parser().parse_args(argv + (["--check"] if check else []))

    def warm_up(self) -> None:
        cli.cmd_run(self._args(self.warm_path, False), out=_Timeline())

    def run_pass(
        self,
        check: bool,
        tracer=None,
        deadline: float = inf,
        time_compile: bool = False,
        reverse: bool = False,
    ) -> PassResult:
        """One whole CLI replay, in trace order.  Its groups come out of the
        CLI, so ``time_compile`` is left to the caller."""
        timeline = _Timeline(tracer)
        captured: list[tuple[int, list, list]] = []  # (window, groups, stats)
        original = cli.run_groups
        if check:

            def capture(groups, *args, **kwargs):
                results, stats = original(groups, *args, **kwargs)
                captured.append((len(timeline.reads), groups, stats))
                return results, stats

            cli.run_groups = capture
        if tracer is not None:
            tracer.request = 0
        args = self._args(self.path, check)
        error = None
        t0 = perf_counter()
        try:
            cli.cmd_run(args, out=timeline)
        except Exception as exc:  # fails the current window and every later one
            error = type(exc).__name__
        finally:
            cli.run_groups = original
        t_fail = perf_counter()
        windows = len(self.trace.reads)
        done = len(timeline.reads)
        stamps = [t0] + timeline.reads
        times = [b - a for a, b in zip(stamps, stamps[1:])]
        if done < windows:
            times += [t_fail - stamps[-1]] + [0.0] * (windows - done - 1)
        errors = [None] * done + [error or "MissingHostRead"] * (windows - done)
        lines = "".join(timeline.lines).splitlines()
        digests, window = [], []
        for line in lines:
            if line.startswith(("check ", "RESULT")):
                break
            window.append(line)
            if line.startswith("host_read "):
                digests.append(_digest("\n".join(window).encode()))
                window = []
        digests += [error or ""] * (windows - len(digests))
        res = PassResult(dict(enumerate(times)), dict(enumerate(errors)), dict(enumerate(digests)))
        if check:
            res.groups = [grp for _, groups, _ in captured for grp in groups]
            res.outcomes = self._check(lines, captured, errors)
        return res

    def _check(self, lines, captured, errors) -> list[Outcome]:
        windows = len(self.trace.reads)
        outcomes = [Outcome(errors[w]) for w in range(windows)]
        window_of: dict[str, int] = {}
        ops_of: list[list] = [[] for _ in range(windows)]
        stats_of: list[list] = [[] for _ in range(windows)]
        g = None
        for w, groups, stats in captured:
            if w >= windows:
                continue  # the end-of-stream flush after the last read
            for grp in groups:
                g = grp.graph
                ops_of[w].extend(grp.ops)
                for op in grp.ops:
                    window_of[op.output] = w
            stats_of[w].extend(stats)
        for line in lines:  # "check <tid>: max_err=<e> PASS|FAIL"
            if not line.startswith("check "):
                continue
            _, tid, err, status = line.split()
            w = window_of[tid[:-1]]
            out = outcomes[w]
            out.max_abs_err = max(out.max_abs_err, float(err.split("=")[1]))
            if status != "PASS" and out.error is None:
                out.error = ORACLE_MISMATCH
                out.wrong = True  # no matmul in the trace: the CLI rule is the bound
        for w, out in enumerate(outcomes):
            if out.error is not None:
                continue
            ops = ops_of[w]
            produced = {op.output for op in ops}
            external = list(dict.fromkeys(t for op in ops for t in op.inputs if t not in produced))
            out.bound, out.work, out.compulsory_bytes = request_model(
                ops, g, self.cfg, external, [self.trace.reads[w]]
            )
            out.makespan = sum(s.makespan for s in stats_of[w])
            out.bytes_moved = sum(s.global_bytes_moved for s in stats_of[w])
        return outcomes
