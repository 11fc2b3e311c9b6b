"""Command-line front end: run graph/trace files on the simulated device.

Subcommands: run, tile, fuse, disasm, bench.  Graph files are JSON
documents (symbols / tensors / ops / outputs); trace files are JSON lines
of bind / tensor / op / branch / host_read / end events.  Reports are
deterministic for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .device import DeviceState, VMError
from .encoder import (
    EncoderError,
    bind_group,
    compile_group,
    run_groups,
    tile_for_group,
)
from .fuser import FusedGroup, FusionBuffer, fuse_static
from .graph import (
    BasicOp,
    COMPOUND_KINDS,
    GraphError,
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


def _gen_data(meta: TensorMeta, shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if meta.dtype == DType.I32:
        return rng.integers(-100, 100, size=shape).astype(np.int32)
    if meta.dtype == DType.U8:
        return rng.integers(0, 2, size=shape).astype(np.uint8)
    return rng.uniform(-1.0, 1.0, size=shape).astype(NP_DTYPES[meta.dtype])


def _parse_attrs(raw: dict) -> dict:
    attrs = dict(raw)
    if "cmp" in attrs and isinstance(attrs["cmp"], str):
        attrs["cmp"] = int(CmpType[attrs["cmp"].upper()])
    return attrs


def _infer_output_meta(
    g: OperatorGraph, kind: str, inputs: list[str], out: str, attrs: dict
) -> TensorMeta:
    ins = [g.tensors[t] for t in inputs]
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
    return TensorMeta(out, dtype, shape)


@dataclass
class LoadedGraph:
    graph: OperatorGraph
    inputs: dict[str, np.ndarray] = field(default_factory=dict)


def load_graph_file(path: str, default_seed: int = 0) -> LoadedGraph:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load {path}: {exc}") from exc
    g = OperatorGraph()
    for entry in doc.get("symbols", []):
        g.symbols.declare(entry["name"], entry.get("value"))
        if "equal_to" in entry:
            g.symbols.equate(entry["name"], entry["equal_to"])
    inputs: dict[str, np.ndarray] = {}
    for i, entry in enumerate(doc.get("tensors", [])):
        try:
            meta = g.tensor(
                entry["id"],
                entry.get("dtype", "f32"),
                tuple(entry["shape"]),
                entry.get("strides"),
            )
        except (KeyError, GraphError, ValueError) as exc:
            raise ParseError(f"tensor entry {i}: {exc}") from exc
        if "data" in entry:
            inputs[meta.id] = np.asarray(entry["data"])
        # seeded data is generated later, once all symbols are bound
    for i, entry in enumerate(doc.get("ops", [])):
        try:
            kind = entry["kind"]
            ins = list(entry.get("in", []))
            out = entry["out"]
            attrs = _parse_attrs(entry.get("attrs", {}))
            if kind in COMPOUND_KINDS:
                metas, ops = decompose(
                    kind,
                    [g.tensors[t] for t in ins],
                    out,
                    eps=float(attrs.get("eps", 1e-5)),
                    taken=attrs.get("taken"),
                )
                for meta in metas:
                    g.add_tensor(meta)
                for op in ops:
                    g.add_op(op)
            else:
                if out not in g.tensors:
                    g.add_tensor(_infer_output_meta(g, kind, ins, out, attrs))
                if kind == "cast":
                    attrs.pop("dst_dtype", None)
                g.op(kind, ins, out, **attrs)
        except (KeyError, GraphError, ValueError) as exc:
            raise ParseError(f"op entry {i}: {exc}") from exc
    outputs = doc.get("outputs")
    if outputs is None:
        produced = {op.output for op in g.ops}
        consumed = {t for op in g.ops for t in op.inputs}
        outputs = [t for t in produced if t not in consumed]
    g.set_outputs(outputs)
    # materialize input data now that symbols are bound
    for i, entry in enumerate(doc.get("tensors", [])):
        tid = entry["id"]
        if tid in inputs or g.producer(tid) is not None:
            continue
        meta = g.tensors[tid]
        shape = g.symbols.resolve(meta.shape)
        inputs[tid] = _gen_data(meta, shape, int(entry.get("seed", default_seed + i)))
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


def _print_group_reports(groups, cfg, out, costs: bool = False) -> None:
    for i, group in enumerate(groups):
        tg = tile_for_group(group, cfg)
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
                f"k_chunk={tg.k_chunk} grid={tg.grid[0]}x{tg.grid[1]} "
                f"order={tg.order.name.lower()} tiles={tg.tiles}",
                file=out,
            )


def cmd_run(args, out=sys.stdout) -> int:
    cfg = _make_config(args)
    if args.mode == "stream":
        return _run_stream(args, cfg, out)
    loaded = load_graph_file(args.path, args.seed)
    g = loaded.graph
    groups = fuse_static(g)
    device = DeviceState.from_config(cfg)
    _print_group_reports(groups, cfg, out)
    results, stats = run_groups(groups, device, cfg, loaded.inputs, debug=True)
    total_bytes = sum(s.global_bytes_moved for s in stats)
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
        report = compare(results[tid].astype(np.float64), env[tid].data, rel, abs_)
        status = "PASS" if report.passed else "FAIL"
        print(f"check {tid}: max_err={report.max_abs_err:.3e} {status}", file=out)
        ok &= report.passed
    print(f"RESULT {'PASS' if ok else 'FAIL'}", file=out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _run_stream(args, cfg, out) -> int:
    events = _load_trace(args.path)
    device = DeviceState.from_config(cfg)
    buffer = FusionBuffer()
    g = buffer.graph
    inputs: dict[str, np.ndarray] = {}
    results: dict[str, np.ndarray] = {}
    taken: bool | None = None
    flushed_count = 0
    tensor_index = 0

    def execute(groups: list[FusedGroup], reason: str) -> None:
        nonlocal flushed_count
        for group in groups:
            res, _ = run_groups([group], device, cfg, inputs, debug=True)
            results.update(res)
            print(
                f"flush[{flushed_count}] reason={group.flush_reason or reason} "
                f"{group.describe()} stores={','.join(group.stores)}",
                file=out,
            )
            flushed_count += 1

    for i, ev in enumerate(events):
        kind = ev.get("event")
        try:
            if kind == "bind":
                g.symbols.bind(ev["sym"], int(ev["value"]))
            elif kind == "tensor":
                meta = g.tensor(
                    ev["id"], ev.get("dtype", "f32"), tuple(ev["shape"])
                )
                shape = g.symbols.resolve(meta.shape)
                if "data" in ev:
                    inputs[meta.id] = np.asarray(ev["data"])
                else:
                    inputs[meta.id] = _gen_data(
                        meta, shape, int(ev.get("seed", args.seed + tensor_index))
                    )
                tensor_index += 1
            elif kind == "branch":
                taken = bool(ev["taken"])
            elif kind == "op":
                attrs = _parse_attrs(ev.get("attrs", {}))
                if ev["kind"] in COMPOUND_KINDS:
                    metas, ops = decompose(
                        ev["kind"],
                        [g.tensors[t] for t in ev["in"]],
                        ev["out"],
                        eps=float(attrs.get("eps", 1e-5)),
                        taken=attrs.get("taken", taken),
                    )
                    new = {m.id: m for m in metas}
                    for op in ops:
                        execute(
                            buffer.push(op, [new[op.output]] if op.output in new else []),
                            "incompatible",
                        )
                else:
                    out_id = ev["out"]
                    new_metas = []
                    if out_id not in g.tensors:
                        new_metas = [
                            _infer_output_meta(g, ev["kind"], ev["in"], out_id, attrs)
                        ]
                    op = BasicOp(ev["kind"], tuple(ev["in"]), out_id, attrs)
                    execute(buffer.push(op, new_metas), "incompatible")
            elif kind == "host_read":
                buffer.mark_host_read(ev["tensor"])
                execute(buffer.flush("host_read"), "host_read")
                value = results.get(ev["tensor"])
                if value is not None:
                    print(
                        f"host_read {ev['tensor']}: "
                        f"mean={float(np.mean(value)):.6g}",
                        file=out,
                    )
            elif kind == "end":
                execute(buffer.flush("end_of_stream"), "end_of_stream")
            else:
                raise ParseError(f"unknown event {kind!r}")
        except (KeyError, GraphError) as exc:
            raise ParseError(f"trace event {i}: {exc}") from exc
    execute(buffer.flush("end_of_stream"), "end_of_stream")
    if not args.check:
        return EXIT_OK
    targets = [t for t in results if g.producer(t) is not None]
    return _check_outputs(g, inputs, targets, results, out)


def _load_trace(path: str) -> list[dict]:
    events = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load {path}: {exc}") from exc
    return events


def cmd_tile(args, out=sys.stdout) -> int:
    loaded = load_graph_file(args.path, args.seed)
    cfg = _make_config(args)
    _print_group_reports(fuse_static(loaded.graph), cfg, out, costs=True)
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
        return args.fn(args)
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
