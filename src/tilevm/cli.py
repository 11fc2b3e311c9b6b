"""Command-line front end: run graph/trace files on the simulated device.

Subcommands: run, tile, fuse, disasm, bench.  Graph files are JSON
documents (symbols / tensors / ops / outputs); trace files are JSON lines
of bind / tensor / op / branch / host_read / end events.  Both share one
tensor and one op entry parser, and a malformed entry exits 2 naming it.
Reports are deterministic for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .device import DeviceState, VMError
from .encoder import (
    EncoderError,
    bind_group,
    compile_group,
    run_group,
    run_groups,
    tile_for_group,
)
from .fuser import FusedGroup, FusionBuffer, fuse_static
from .graph import (
    BasicOp,
    COMPOUND_KINDS,
    OperatorGraph,
    REDUCTION_KINDS,
    TensorMeta,
    decompose,
    unify_shapes,
)
from .isa import NP_DTYPES, CmpType, DType, disassemble
from .oracle import RefTensor, compare, ref_execute
from .tiler import DeviceConfig, InfeasibleTilingError, tiling_cost

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_COMPILE_OR_RUN = 4


class ParseError(ValueError):
    pass


@contextmanager
def _parsing(where: str):
    """Report an entry that is malformed, or that makes the graph invalid,
    as a ParseError naming it."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ParseError(f"{where}: {detail}") from exc


def _gen_data(meta: TensorMeta, shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if meta.dtype == DType.I32:
        return rng.integers(-100, 100, size=shape).astype(np.int32)
    if meta.dtype == DType.U8:
        return rng.integers(0, 2, size=shape).astype(np.uint8)
    return rng.uniform(-1.0, 1.0, size=shape).astype(NP_DTYPES[meta.dtype])


def _tensor_entry(g: OperatorGraph, entry: dict) -> TensorMeta:
    """Add the tensor an entry declares to ``g``."""
    shape = entry["shape"]
    if not isinstance(shape, list):
        raise ParseError(f"shape {shape!r} is not a list")
    dtype = DType.parse(entry.get("dtype", "f32"))
    return g.tensor(entry["id"], dtype, shape, entry.get("strides"))


def _input_data(g: OperatorGraph, meta: TensorMeta, entry: dict, seed: int) -> np.ndarray:
    """The entry's ``data`` in the tensor's dtype and resolved shape, or
    seeded random data."""
    shape = g.symbols.resolve(meta.shape)
    if "data" in entry:
        return np.asarray(entry["data"], NP_DTYPES[meta.dtype]).reshape(shape)
    return _gen_data(meta, shape, int(entry.get("seed", seed)))


def _parse_attrs(raw: dict) -> dict:
    attrs = dict(raw)
    if "cmp" in attrs and isinstance(attrs["cmp"], str):
        attrs["cmp"] = int(CmpType[attrs["cmp"].upper()])
    return attrs


def _infer_output_meta(g: OperatorGraph, op: BasicOp) -> TensorMeta:
    kind, attrs = op.kind, op.attrs
    ins = [g.tensors[t] for t in op.inputs]
    if kind == "matmul":
        shape = (ins[0].shape[0], ins[1].shape[1])
    elif kind in REDUCTION_KINDS:
        shape = ins[0].shape[:-1] + (1,)
    elif kind == "broadcast":
        shape = ins[0].shape[:-1] + (int(attrs["size"]),)
    else:
        unified = ins[0].shape
        for t in ins[1:]:
            unified = unify_shapes(unified, t.shape, g.symbols)
            if unified is None:
                raise ParseError(f"op {kind}: inputs do not unify")
        shape = unified
    dtype = ins[0].dtype
    if kind == "cast":
        dtype = DType.parse(attrs["dst_dtype"]) if isinstance(
            attrs.get("dst_dtype"), str
        ) else DType(attrs["dst_dtype"])
    return TensorMeta(op.output, dtype, shape)


def _op_entry(
    g: OperatorGraph, entry: dict, taken: bool | None = None
) -> tuple[list[TensorMeta], list[BasicOp]]:
    """The new tensors and the basic ops of a basic or compound op entry.

    Adds neither to ``g``, and a tensor ``g`` already declares keeps its
    declaration.  An undeclared output of a basic op is inferred from its
    inputs; ``taken`` resolves an ``if_else_add`` without its own
    ``attrs.taken``.
    """
    kind, ins, out = entry["kind"], entry["in"], entry["out"]
    attrs = _parse_attrs(entry.get("attrs", {}))
    if kind in COMPOUND_KINDS:
        metas, ops = decompose(
            kind,
            [g.tensors[t] for t in ins],
            out,
            eps=float(attrs.get("eps", 1e-5)),
            taken=attrs.get("taken", taken),
        )
        return [m for m in metas if m.id not in g.tensors], ops
    op = BasicOp(kind, tuple(ins), out, attrs)
    metas = [] if out in g.tensors else [_infer_output_meta(g, op)]
    if kind == "cast":
        attrs.pop("dst_dtype", None)
    return metas, [op]


@dataclass
class LoadedGraph:
    graph: OperatorGraph
    inputs: dict[str, np.ndarray] = field(default_factory=dict)


def _read(path: str, parse):
    """``parse`` applied to the open file; a bad file or bad JSON is a ParseError."""
    try:
        with open(path) as fh:
            return parse(fh)
    except (OSError, ValueError) as exc:  # JSON and text decoding errors are ValueErrors
        raise ParseError(f"cannot load {path}: {exc}") from exc


def load_graph_file(path: str, default_seed: int = 0) -> LoadedGraph:
    doc = _read(path, json.load)
    g = OperatorGraph()
    with _parsing("graph"):
        tensors, ops = list(doc.get("tensors", [])), list(doc.get("ops", []))
        for entry in doc.get("symbols", []):
            g.symbols.declare(entry["name"], entry.get("value"))
            if "equal_to" in entry:
                g.symbols.equate(entry["name"], entry["equal_to"])
    inputs: dict[str, np.ndarray] = {}
    for i, entry in enumerate(tensors):
        with _parsing(f"tensor entry {i}"):
            meta = _tensor_entry(g, entry)
            if "data" in entry:
                inputs[meta.id] = _input_data(g, meta, entry, default_seed + i)
    for i, entry in enumerate(ops):
        with _parsing(f"op entry {i}"):
            metas, basic = _op_entry(g, entry)
            for meta in metas:
                g.add_tensor(meta)
            for op in basic:
                g.add_op(op)
    with _parsing("graph"):
        outputs = doc.get("outputs")
        if outputs is None:
            produced = {op.output for op in g.ops}
            consumed = {t for op in g.ops for t in op.inputs}
            outputs = [t for t in produced if t not in consumed]
        g.set_outputs(outputs)
    # inputs are the tensors no op produces; those without data get seeded data
    inputs = {t: a for t, a in inputs.items() if g.producer(t) is None}
    for i, entry in enumerate(tensors):
        tid = entry["id"]
        if tid not in inputs and g.producer(tid) is None:
            with _parsing(f"tensor entry {i}"):
                inputs[tid] = _input_data(g, g.tensors[tid], entry, default_seed + i)
    return LoadedGraph(g, inputs)


def _tolerance_for(g: OperatorGraph) -> tuple[float, float]:
    rel = abs_ = 0.0
    kinds = {op.kind for op in g.ops}
    dtypes = {g.tensors[t].dtype for t in g.touched_tensor_ids()}
    if DType.F16 in dtypes or kinds & (REDUCTION_KINDS | {"broadcast"}):
        rel = abs_ = 1e-3
    if "matmul" in kinds:
        rel, abs_ = max(rel, 1e-5), max(abs_, 1e-5)
    return rel, abs_


def _make_config(args) -> DeviceConfig:
    return DeviceConfig(
        num_cores=args.cores,
        local_mem_bytes=args.local_mem,
        instr_width_bytes=args.width,
    )


def _print_costs(tg, cfg, out) -> None:
    """The cost model at the chosen tile and one hardware width either side."""
    width = cfg.width_elems(tg.dtype_bytes)
    for size in (tg.tile_elems - width, tg.tile_elems, tg.tile_elems + width):
        if size >= 1:
            cost = tiling_cost(size, tg.total_elems, cfg.num_cores)
            print(f"  cost[{size}]={cost:.6g}", file=out)


def _print_report(i, group, tg, cfg, out, costs: bool = False) -> None:
    if tg.kind == "vector":
        print(
            f"group {i}: {group.describe()} tile={tg.tile_elems} "
            f"tiles={tg.tiles} tail={tg.tail_elems} t_max={tg.t_max}",
            file=out,
        )
        if costs:
            _print_costs(tg, cfg, out)
    else:
        print(
            f"group {i}: {group.describe()} tm={tg.tm} tn={tg.tn} "
            f"k_chunk={tg.k_chunk} grid={tg.grid[0]}x{tg.grid[1]} tiles={tg.tiles}",
            file=out,
        )


def cmd_run(args, out=sys.stdout) -> int:
    cfg = _make_config(args)
    if args.mode == "stream":
        return _run_stream(args, cfg, out)
    loaded = load_graph_file(args.path, args.seed)
    g = loaded.graph
    device = DeviceState.from_config(cfg)
    results: dict[str, np.ndarray] = {}
    total_bytes = 0
    for i, group in enumerate(fuse_static(g)):
        tg = tile_for_group(group, cfg)
        _print_report(i, group, tg, cfg, out)
        stats = run_group(group, tg, device, cfg, loaded.inputs, results, debug=True)
        total_bytes += stats.global_bytes_moved
    print(f"bytes_moved={total_bytes} seed={args.seed}", file=out)
    if not args.check:
        return EXIT_OK
    return _check_outputs(g, loaded.inputs, g.outputs, results, out)


def _check_outputs(g, inputs, tids, results, out) -> int:
    env = ref_execute(
        g, {t: RefTensor.from_array(a, g.tensors[t].dtype) for t, a in inputs.items()}
    )
    rel, abs_ = _tolerance_for(g)
    ok = True
    for tid in tids:
        report = compare(results[tid], env[tid].data, rel, abs_)
        status = "PASS" if report.passed else "FAIL"
        print(f"check {tid}: max_err={report.max_abs_err:.3e} {status}", file=out)
        ok &= report.passed
    print(f"RESULT {'PASS' if ok else 'FAIL'}", file=out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _run_stream(args, cfg, out) -> int:
    events = _read(args.path, lambda fh: [json.loads(line) for line in fh if line.strip()])
    device = DeviceState.from_config(cfg)
    buffer = FusionBuffer()
    g = buffer.graph
    inputs: dict[str, np.ndarray] = {}
    results: dict[str, np.ndarray] = {}
    taken: bool | None = None
    flushed = 0
    tensor_index = 0
    # a trace may stop without an end event: its last group flushes anyway
    for i, ev in enumerate([*events, {"event": "end"}]):
        groups: list[FusedGroup] = []
        with _parsing(f"trace event {i}"):
            kind = ev.get("event")
            if kind == "bind":
                g.symbols.bind(ev["sym"], ev["value"])
            elif kind == "tensor":
                meta = _tensor_entry(g, ev)
                inputs[meta.id] = _input_data(g, meta, ev, args.seed + tensor_index)
                tensor_index += 1
            elif kind == "branch":
                taken = bool(ev["taken"])
            elif kind == "op":
                metas, ops = _op_entry(g, ev, taken)
                for op in ops:
                    groups += buffer.push(op, [m for m in metas if m.id == op.output])
                    inputs.pop(op.output, None)  # a produced tensor is no input
            elif kind == "host_read":
                buffer.mark_host_read(ev["tensor"])
                groups += buffer.flush("host_read")
            elif kind == "end":
                groups += buffer.flush("end_of_stream")
            else:
                raise ParseError(f"unknown event {kind!r}")
        # run outside the parse wrapper, so a compile or run error keeps its exit code
        for group in groups:
            res, _ = run_groups([group], device, cfg, inputs, debug=True)
            results.update(res)
            print(
                f"flush[{flushed}] reason={group.flush_reason} "
                f"{group.describe()} stores={','.join(group.stores)}",
                file=out,
            )
            flushed += 1
        if kind == "host_read" and ev["tensor"] in results:
            value = results[ev["tensor"]]
            print(f"host_read {ev['tensor']}: mean={float(np.mean(value)):.6g}", file=out)
    if not args.check:
        return EXIT_OK
    targets = [t for t in results if g.producer(t) is not None]
    return _check_outputs(g, inputs, targets, results, out)


def cmd_tile(args, out=sys.stdout) -> int:
    loaded = load_graph_file(args.path, args.seed)
    cfg = _make_config(args)
    for i, group in enumerate(fuse_static(loaded.graph)):
        _print_report(i, group, tile_for_group(group, cfg), cfg, out, costs=True)
    return EXIT_OK


def cmd_fuse(args, out=sys.stdout) -> int:
    loaded = load_graph_file(args.path, args.seed)
    for i, group in enumerate(fuse_static(loaded.graph)):
        print(f"group {i}: {group.describe()}", file=out)
    return EXIT_OK


def cmd_disasm(args, out=sys.stdout) -> int:
    loaded = load_graph_file(args.path, args.seed)
    cfg = _make_config(args)
    device = DeviceState.from_config(cfg)
    for i, group in enumerate(fuse_static(loaded.graph)):
        tg = tile_for_group(group, cfg)
        bind_group(device, tg.graph)
        program = compile_group(group, tg, cfg)
        print(f"; group {i}: {group.describe()}", file=out)
        print(disassemble(program), end="", file=out)
    return EXIT_OK


def cmd_bench(args, out=sys.stdout) -> int:
    loaded = load_graph_file(args.path, args.seed)
    cfg = _make_config(args)
    device = DeviceState.from_config(cfg)
    groups = fuse_static(loaded.graph)
    _, stats_list = run_groups(groups, device, cfg, loaded.inputs)
    for i, stats in enumerate(stats_list):
        print(f"group {i}:", file=out)
        print(f"  {'queue':<8}{'busy':>14}", file=out)
        totals = {"scalar": 0.0, "dma": 0.0, "vector": 0.0, "cube": 0.0}
        for busy in stats.per_core_busy:
            for q, t in busy.items():
                totals[q] += t
        for q in ("scalar", "dma", "vector", "cube"):
            print(f"  {q:<8}{totals[q]:>14.6g}", file=out)
        print(f"stat group={i} makespan={stats.makespan:.6g}", file=out)
        print(
            f"stat group={i} makespan_exec_only={stats.makespan_exec_only:.6g}",
            file=out,
        )
        print(f"stat group={i} decode_hidden={int(stats.decode_hidden)}", file=out)
        print(f"stat group={i} bytes_moved={stats.global_bytes_moved}", file=out)
        print(f"stat group={i} tiles={stats.tiles_executed}", file=out)
        counts = ",".join(
            f"{k}:{v}" for k, v in sorted(stats.instruction_counts.items())
        )
        print(f"stat group={i} counts={counts}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilevm",
        description="Tile-level bytecode compiler and VM on a simulated device",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", cmd_run),
        ("tile", cmd_tile),
        ("fuse", cmd_fuse),
        ("disasm", cmd_disasm),
        ("bench", cmd_bench),
    ):
        p = sub.add_parser(name)
        p.add_argument("path")
        p.add_argument("--cores", type=int, default=40)
        p.add_argument("--local-mem", type=int, default=192 * 1024)
        p.add_argument("--width", type=int, default=32)
        p.add_argument("--seed", type=int, default=0)
        if name == "run":
            p.add_argument("--mode", choices=("static", "stream"), default="static")
            p.add_argument("--check", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, out=sys.stdout)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except InfeasibleTilingError as exc:
        print(f"error: infeasible tiling: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (EncoderError, VMError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPILE_OR_RUN


if __name__ == "__main__":
    sys.exit(main())
