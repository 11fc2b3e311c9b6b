"""Shared generators and independent reference implementations for tests."""

from __future__ import annotations

from math import prod

import numpy as np

from tilevm import (
    DeviceConfig,
    DeviceState,
    DType,
    KernelType,
    OperatorGraph,
    ProgramHeader,
    RefTensor,
    VirtualInstruction,
    fuse_static,
    ref_execute,
)
from tilevm.device import (
    ExecutionStats,
    _check_disjoint_writes,
    _dtype,
    _view_geometry,
    exec_instruction,
    matmul_effective,
    tile_range,
)
from tilevm.encoder import run_groups
from tilevm.fuser import FusedGroup, FusionBuffer
from tilevm.graph import BasicOp, TensorMeta, decompose
from tilevm.isa import (
    NP_DTYPES,
    SCHEMAS,
    BytecodeProgram,
    InstructionKind,
    Queue,
)


# --- bytecode fuzzing ---------------------------------------------------------


def random_instruction(rng: np.random.Generator) -> VirtualInstruction:
    kinds = list(SCHEMAS)
    kind = kinds[int(rng.integers(len(kinds)))]
    dims = int(rng.integers(1, 5))
    tile = int(rng.integers(1, 1 << 20))
    total = int(rng.integers(1, 1 << 28))
    dst = 0
    srcs: list[int] = []
    extras: dict = {}
    has_sizes = False
    for name, code in SCHEMAS[kind]:
        if name == "dst":
            dst = int(rng.integers(0, 1 << 48))
            continue
        if name.startswith("src") and name[3:].isdigit():
            srcs.append(int(rng.integers(0, 1 << 48)))
            continue
        if name in ("tile_size", "total_size"):
            has_sizes = True
            continue
        if name == "sync":
            extras["flag"] = int(rng.integers(0, 256))
            extras["queue"] = int(rng.integers(0, 4))
            continue
        if code == "U":
            if name == "tile_stride":
                extras[name] = tile + int(rng.integers(0, 1 << 10))
            elif name == "dims":
                extras[name] = dims
            elif name in ("dtype", "src_dtype", "dst_dtype"):
                extras[name] = int(rng.integers(0, 4))
            elif name == "cmp":
                extras[name] = int(rng.integers(0, 6))
            else:
                extras[name] = int(rng.integers(0, 1 << 31))
        elif code == "F":
            extras[name] = float(rng.normal())
        elif code == "V":
            extras[name] = tuple(int(x) for x in rng.integers(0, 1 << 31, dims))
    if not has_sizes:
        tile = total = 1
    return VirtualInstruction(kind, dst, tuple(srcs), tile, total, extras)


def random_header(rng: np.random.Generator) -> ProgramHeader:
    return ProgramHeader(
        KernelType(int(rng.integers(0, len(KernelType)))),
        0,
        int(rng.integers(1, 1 << 16)),
        int(rng.integers(1, 129)),
    )


# --- brute-force oracles ------------------------------------------------------


def brute_force_min_cost(
    t_hi: int, l_prime: int, total: int, n_cores: int, overhead: float = 2.0
) -> tuple[int, float]:
    """Exhaustive scan of every multiplier in [1, t_hi]; ties pick smallest."""
    t = np.arange(1, t_hi + 1, dtype=np.int64)
    sizes = t * l_prime
    tiles = -(-total // sizes)
    factors = -(-tiles // n_cores)
    costs = factors * (sizes + overhead)
    best = int(np.argmin(costs))  # argmin returns the first (smallest t) on ties
    return int(t[best]), float(costs[best])


def brute_force_liveness(ops, outputs) -> int:
    """Peak live buffer count by direct forward simulation."""
    remaining_uses: dict[str, int] = {}
    for op in ops:
        for tid in op.inputs:
            remaining_uses[tid] = remaining_uses.get(tid, 0) + 1
    live = set()
    peak = 0
    for op in ops:
        live.update(op.inputs)
        live.add(op.output)
        peak = max(peak, len(live))
        for tid in op.inputs:
            remaining_uses[tid] -= 1
            if remaining_uses[tid] == 0 and tid not in outputs:
                live.discard(tid)
        if op.output not in outputs and remaining_uses.get(op.output, 0) == 0:
            live.discard(op.output)
    return peak


# The VM before lockstep: each core walks the body once per assigned tile,
# core after core, one instruction at a time.  Kept as the reference the
# lockstep dispatch must equal exactly.


def reference_dispatch(
    program: BytecodeProgram, device: DeviceState, debug: bool = False
) -> ExecutionStats:
    header = program.header
    stats = ExecutionStats()
    insns = program.instructions()
    for core_id in range(header.block_dim):
        core = device.cores[core_id]
        core.write_ranges.clear()
        tiles = tile_range(core_id, header.total_tiles, header.block_dim)
        for tile in tiles:
            for insn in insns:
                exec_instruction(insn, tile, core, device, stats)
        stats.tiles_executed += len(tiles)
    if debug:
        _check_disjoint_writes(device, header.block_dim)
    return stats


# The timing model before it simulated each distinct core once: two passes
# per core (with and without decode) that recompute every per-tile cost.
# Kept verbatim as the reference the device's model must equal exactly.


def reference_instruction_cost(insn: VirtualInstruction, tile: int, cfg: DeviceConfig) -> float:
    kind = insn.kind
    if kind in (InstructionKind.Load, InstructionKind.Store):
        if (
            kind is InstructionKind.Store
            and insn.tile_size >= insn.total_size
            and tile > 0
        ):
            return 0.0
        w = _dtype(insn.extras["dtype"]).nbytes
        return insn.effective_size(tile) * w * cfg.dma_cost_per_byte
    if kind in (InstructionKind.ViewLoad, InstructionKind.ViewStore):
        _, effs = _view_geometry(insn, tile)
        w = _dtype(insn.extras["dtype"]).nbytes
        return prod(effs) * w * cfg.dma_cost_per_byte
    if kind is InstructionKind.Matmul:
        _, _, m_eff, n_eff = matmul_effective(insn, tile)
        return m_eff * insn.extras["k"] * n_eff * cfg.cube_cost_per_mac
    return insn.effective_size(tile) * cfg.vector_cost_per_elem


def reference_simulate_core(
    insns: list[VirtualInstruction],
    tiles: range,
    cfg: DeviceConfig,
    decode_cost: float,
    sync_cost: float,
) -> tuple[float, dict[str, float]]:
    scalar_t = 0.0
    qfree = {Queue.DMA: 0.0, Queue.VECTOR: 0.0, Queue.CUBE: 0.0}
    gate = {Queue.DMA: 0.0, Queue.VECTOR: 0.0, Queue.CUBE: 0.0}
    release: dict[int, float] = {}
    busy = {"scalar": 0.0, "dma": 0.0, "vector": 0.0, "cube": 0.0}
    for tile in tiles:
        for insn in insns:
            scalar_t += decode_cost
            busy["scalar"] += decode_cost
            decode_done = scalar_t
            if insn.kind is InstructionKind.SyncSet:
                scalar_t += sync_cost
                busy["scalar"] += sync_cost
                q = Queue(insn.extras["queue"])
                release[insn.extras["flag"]] = qfree.get(q, scalar_t)
            elif insn.kind is InstructionKind.SyncWait:
                scalar_t += sync_cost
                busy["scalar"] += sync_cost
                q = Queue(insn.extras["queue"])
                if q in gate:
                    gate[q] = max(gate[q], release.get(insn.extras["flag"], 0.0))
            else:
                q = insn.kind.queue
                cost = reference_instruction_cost(insn, tile, cfg)
                start = max(qfree[q], decode_done, gate[q])
                qfree[q] = start + cost
                busy[{Queue.DMA: "dma", Queue.VECTOR: "vector", Queue.CUBE: "cube"}[q]] += cost
    return max(scalar_t, *qfree.values()), busy


def reference_simulate_timing(program: BytecodeProgram, cfg: DeviceConfig) -> ExecutionStats:
    """Discrete-event model of decode/queue overlap; pure, touches no memory."""
    insns = program.instructions()
    header = program.header
    stats = ExecutionStats()
    spans, spans0 = [], []
    for core_id in range(header.block_dim):
        tiles = tile_range(core_id, header.total_tiles, header.block_dim)
        span, busy = reference_simulate_core(insns, tiles, cfg, cfg.decode_cost, cfg.sync_cost)
        span0, _ = reference_simulate_core(insns, tiles, cfg, 0.0, 0.0)
        spans.append(span)
        spans0.append(span0)
        stats.per_core_busy.append(busy)
    stats.makespan = max(spans)
    stats.makespan_exec_only = max(spans0)
    n_sync = sum(1 for i in insns if i.kind.is_sync)
    stats.decode_burst = cfg.decode_cost * len(insns) + cfg.sync_cost * n_sync
    stats.decode_hidden = (
        stats.makespan <= stats.makespan_exec_only + stats.decode_burst + 1e-9
    )
    return stats


def direct_layernorm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    x = x.astype(np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


# --- random graph corpus ------------------------------------------------------

_EW_BINARY = ["add", "sub", "mul", "div", "min", "max"]
_EW_UNARY = ["sqrt", "abs", "exp", "log", "round", "floor", "isfinite"]


def random_vector_graph(
    rng: np.random.Generator,
    max_ops: int = 8,
    max_rows: int = 64,
    max_cols: int = 1024,
    dtypes: tuple[DType, ...] = (DType.F32, DType.F32, DType.F16, DType.I32),
) -> tuple[OperatorGraph, dict[str, np.ndarray]]:
    g = OperatorGraph()
    r = int(rng.integers(1, max_rows + 1))
    c = int(rng.integers(1, max_cols + 1))
    dtype = dtypes[int(rng.integers(len(dtypes)))]
    pool: list[str] = []
    inputs: dict[str, np.ndarray] = {}
    for i in range(int(rng.integers(2, 4))):
        shape = (r, c) if i == 0 or rng.random() > 0.25 else (1, c)
        tid = f"in{i}"
        g.tensor(tid, dtype, shape)
        pool.append(tid)
        inputs[tid] = _random_data(rng, shape, dtype)
    n_ops = int(rng.integers(1, max_ops + 1))
    for i in range(n_ops):
        out = f"t{i}"
        roll = rng.random()
        if roll < 0.40:
            kind = _EW_BINARY[int(rng.integers(len(_EW_BINARY)))]
            a, b = _pick(rng, pool), _pick(rng, pool)
            shape = _unified(g, a, b)
            g.tensor(out, dtype, shape)
            g.op(kind, [a, b], out)
        elif roll < 0.62:
            kind = _EW_UNARY[int(rng.integers(len(_EW_UNARY)))]
            a = _pick(rng, pool)
            g.tensor(out, dtype, g.tensors[a].shape)
            g.op(kind, [a], out)
        elif roll < 0.74:
            kind = "adds" if rng.random() < 0.5 else "muls"
            a = _pick(rng, pool)
            g.tensor(out, dtype, g.tensors[a].shape)
            g.op(kind, [a], out, scalar=float(rng.normal()))
        elif roll < 0.82:
            a, b = _pick(rng, pool), _pick(rng, pool)
            shape = _unified(g, a, b)
            g.tensor(out, dtype, shape)
            g.op("cmp", [a, b], out, cmp=int(rng.integers(0, 6)))
        elif roll < 0.90 and c > 1:
            kind = ["sum", "reduce_max", "reduce_min"][int(rng.integers(3))]
            a = _pick(rng, pool)
            shape = g.tensors[a].shape[:-1] + (1,)
            g.tensor(out, dtype, shape)
            g.op(kind, [a], out)
        elif roll < 0.96:
            cond, a, b = _pick(rng, pool), _pick(rng, pool), _pick(rng, pool)
            shape = _unified(g, a, b)
            shape = _unify3(g, shape, cond)
            g.tensor(out, dtype, shape)
            g.op("select", [cond, a, b], out)
        else:
            a = _pick(rng, pool)
            src_shape = g.tensors[a].shape
            if src_shape[-1] == 1:
                g.tensor(out, dtype, src_shape[:-1] + (c,))
                g.op("broadcast", [a], out, size=c)
            else:
                g.tensor(out, dtype, src_shape)
                g.op("abs", [a], out)
        pool.append(out)
    leaves = [op.output for op in g.ops if not any(
        op.output in o.inputs for o in g.ops
    )]
    g.set_outputs(leaves)
    return g, inputs


def random_stream(
    rng: np.random.Generator,
    capacity: int,
    n_ops: int = 16,
    max_rows: int = 16,
    max_cols: int = 32,
) -> tuple[OperatorGraph, dict[str, np.ndarray], list[FusedGroup]]:
    """Push a random f32 op stream with random host reads through a
    FusionBuffer of the given capacity.

    Element-wise ops, last-axis sum + broadcast pairs and matmuls against a
    square weight all keep the [rows, cols] shape, so any op may follow any
    other and matmuls force incompatible flushes.  Ops read only tensors
    still readable at that point: inputs, stored outputs of flushed groups
    and outputs of the open group.  Returns the buffer's graph, the input
    data and every flushed group in order.
    """
    buf = FusionBuffer(capacity=capacity)
    g = buf.graph
    r = int(rng.integers(1, max_rows + 1))
    c = int(rng.integers(2, max_cols + 1))
    inputs: dict[str, np.ndarray] = {}
    for tid, shape in (("x0", (r, c)), ("x1", (r, c)), ("w", (c, c))):
        g.tensor(tid, DType.F32, shape)
        inputs[tid] = _random_data(rng, shape, DType.F32)
    readable = ["x0", "x1"]
    groups: list[FusedGroup] = []

    def take(flushed: list[FusedGroup]) -> None:
        for group in flushed:
            groups.append(group)
            gone = {op.output for op in group.ops} - set(group.stores)
            readable[:] = [t for t in readable if t not in gone]

    def push(op: BasicOp, shape: tuple[int, ...]) -> None:
        take(buf.push(op, [TensorMeta(op.output, DType.F32, shape)]))

    for i in range(n_ops):
        out = f"t{i}"
        a, b = _pick(rng, readable), _pick(rng, readable)
        roll = rng.random()
        if roll < 0.2:
            push(BasicOp("matmul", (a, "w"), out), (r, c))
        elif roll < 0.3:
            push(BasicOp("sum", (a,), f"{out}.s"), (r, 1))
            push(BasicOp("broadcast", (f"{out}.s",), out, {"size": c}), (r, c))
        elif roll < 0.65:
            kind = ("add", "sub", "mul", "min", "max")[int(rng.integers(5))]
            push(BasicOp(kind, (a, b), out), (r, c))
        elif roll < 0.8:
            kind = ("abs", "exp")[int(rng.integers(2))]
            push(BasicOp(kind, (a,), out), (r, c))
        else:
            kind = ("adds", "muls")[int(rng.integers(2))]
            push(BasicOp(kind, (a,), out, {"scalar": float(rng.normal())}), (r, c))
        readable.append(out)
        if rng.random() < 0.2:
            buf.mark_host_read(out)
            take(buf.flush("host_read"))
    take(buf.flush("end_of_stream"))
    return g, inputs, groups


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _unified(g, a, b):
    from tilevm.graph import unify_shapes

    shape = unify_shapes(g.tensors[a].shape, g.tensors[b].shape, g.symbols)
    assert shape is not None
    return shape


def _unify3(g, shape, tid):
    from tilevm.graph import unify_shapes

    out = unify_shapes(shape, g.tensors[tid].shape, g.symbols)
    assert out is not None
    return out


def _random_data(rng, shape, dtype: DType) -> np.ndarray:
    if dtype == DType.I32:
        return rng.integers(-50, 50, size=shape).astype(np.int32)
    if dtype == DType.U8:
        return rng.integers(0, 2, size=shape).astype(np.uint8)
    return rng.uniform(-1.0, 1.0, size=shape).astype(NP_DTYPES[dtype])


def compound_graph(
    kind: str, rng: np.random.Generator, taken: bool | None = None
) -> tuple[OperatorGraph, dict[str, np.ndarray]]:
    g = OperatorGraph()
    if kind == "matmul":
        m, k, n = (int(rng.integers(1, 97)) for _ in range(3))
        a = g.tensor("a", DType.F32, (m, k))
        b = g.tensor("b", DType.F32, (k, n))
        g.tensor("o", DType.F32, (m, n))
        g.op("matmul", ["a", "b"], "o")
        g.set_outputs(["o"])
        inputs = {t.id: _random_data(rng, t.shape, t.dtype) for t in (a, b)}
        return g, inputs
    if kind == "addmm":
        m, k, n = (int(rng.integers(1, 97)) for _ in range(3))
        ins = [
            g.tensor("a", DType.F32, (m, k)),
            g.tensor("b", DType.F32, (k, n)),
            g.tensor("c", DType.F32, (m, n)),
        ]
    elif kind == "layernorm":
        b_, s, h = int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(
            rng.integers(2, 65)
        )
        ins = [g.tensor("x", DType.F32, (b_, s, h))]
    elif kind == "if_else_add":
        b_, s = int(rng.integers(1, 9)), int(rng.integers(1, 65))
        ins = [
            g.tensor("x", DType.F32, (b_, s)),
            g.tensor("y", DType.F32, (b_, s)),
        ]
    else:
        raise ValueError(kind)
    metas, ops = decompose(kind, ins, "out", taken=taken)
    for meta in metas:
        g.add_tensor(meta)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["out"])
    inputs = {t.id: _random_data(rng, t.shape, t.dtype) for t in ins}
    return g, inputs


def random_cube_graph(
    rng: np.random.Generator, max_dim: int = 80
) -> tuple[OperatorGraph, dict[str, np.ndarray]]:
    """A random matmul, followed three times in four by an element-wise
    chain whose side inputs are (m, n), (1, n) or (n,) tensors: one cube or
    cube-vector group, with chain loads that advance by rows and that don't."""
    g = OperatorGraph()
    m, k, n = (int(rng.integers(1, max_dim + 1)) for _ in range(3))
    dtype = (DType.F32, DType.F16)[int(rng.integers(2))]
    for tid, shape in (("a", (m, k)), ("b", (k, n)), ("mm", (m, n))):
        g.tensor(tid, dtype, shape)
    g.op("matmul", ["a", "b"], "mm")
    head = "mm"
    for i in range(int(rng.integers(0, 4))):
        side, out = f"c{i}", f"t{i}"
        g.tensor(side, dtype, [(m, n), (1, n), (n,)][int(rng.integers(3))])
        g.tensor(out, dtype, (m, n))
        kind = ("add", "sub", "mul", "min", "max")[int(rng.integers(5))]
        g.op(kind, [head, side] if rng.random() < 0.5 else [side, head], out)
        head = out
    g.set_outputs([head])
    inputs = {
        tid: _random_data(rng, g.tensors[tid].shape, dtype) for tid in g.graph_input_ids()
    }
    return g, inputs


def random_layout(rng: np.random.Generator, shape) -> tuple[int, ...] | None:
    """Element strides storing ``shape`` contiguously (None), transposed, or
    with unused elements after each row (after each element, if 1-D)."""
    roll, pad = int(rng.integers(3)), int(rng.integers(1, 8))
    if roll == 0:
        return None
    if len(shape) == 1:
        return (1 + pad,)
    rows, cols = shape
    return (1, rows) if roll == 1 else (cols + pad, 1)


def with_layouts(g: OperatorGraph, layouts: dict) -> OperatorGraph:
    """A copy of ``g`` whose tensors named in ``layouts`` have those strides."""
    out = OperatorGraph()
    for tid, meta in g.tensors.items():
        out.tensor(tid, meta.dtype, meta.shape, layouts.get(tid, meta.strides))
    for op in g.ops:
        out.add_op(op)
    out.set_outputs(g.outputs)
    return out


# --- pipeline drivers -----------------------------------------------------------


def run_static(
    g: OperatorGraph,
    inputs: dict[str, np.ndarray],
    cfg: DeviceConfig,
    debug: bool = True,
    singleton: bool = False,
):
    """Fuse (or split into singletons), run on a fresh device, return results."""
    groups = fuse_static(g)
    if singleton:
        from tilevm.fuser import FusedGroup, SINGLETON, _escaping

        groups = []
        for op in g.ops:
            grp = FusedGroup(SINGLETON, [op], g)
            grp.stores = _escaping([op], g, set())
            groups.append(grp)
    device = DeviceState.from_config(cfg)
    results, stats = run_groups(groups, device, cfg, inputs, debug=debug)
    return results, stats, groups


def oracle_env(g: OperatorGraph, inputs: dict[str, np.ndarray]):
    refs = {
        tid: RefTensor.from_array(arr, g.tensors[tid].dtype)
        for tid, arr in inputs.items()
    }
    return ref_execute(g, refs)
