"""Simulated multi-core SPMD accelerator and its bytecode virtual machine.

Each core owns private local memory and four queues (scalar decode, DMA,
vector, cube).  Functional execution is sequential per core: the VM walks
the decoded program body once per assigned tile, calling the matching
entry of the instruction table; memory instructions receive the tile index
for address generation.  A program's body is decoded once and shared by
every core.  The timing model is a separate discrete-event pass over the
same program: it computes each tile's costs once, simulates each distinct
core once, still charges a decode per record per tile, and never touches
memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, prod
from typing import Callable

import numpy as np

from .isa import (
    BytecodeProgram,
    CmpType,
    DType,
    InstructionKind,
    MEMORY_KINDS,
    NP_DTYPES,
    Queue,
    VirtualInstruction,
    decode_instruction,  # noqa: F401  (perfbench/tracing.py counts calls here)
    decompose_tile_index,
    to_storage,
)
from .tiler import DeviceConfig


class VMError(RuntimeError):
    pass


@dataclass
class Core:
    index: int
    local: np.ndarray
    dtypes: dict[int, DType] = field(default_factory=dict)
    write_ranges: list[tuple[int, int]] = field(default_factory=list)


class DeviceState:
    """Global memory arena plus N cores with private local memories.

    ``global_mem_bytes`` is the arena's starting size; it grows on demand.
    """

    def __init__(
        self,
        num_cores: int = 40,
        local_mem_bytes: int = 192 * 1024,
        global_mem_bytes: int = 1 << 26,
    ) -> None:
        self.global_mem = np.zeros(global_mem_bytes, dtype=np.uint8)
        self.cores = [
            Core(i, np.zeros(local_mem_bytes, dtype=np.uint8))
            for i in range(num_cores)
        ]
        self._next_free = 0
        self.bindings: dict[str, int] = {}  # tensor id -> global byte offset

    @classmethod
    def from_config(cls, cfg: DeviceConfig, global_mem_bytes: int = 1 << 26):
        return cls(cfg.num_cores, cfg.local_mem_bytes, global_mem_bytes)

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def alloc_global(self, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes``; the arena at least doubles when they do not
        fit, so a view of ``global_mem`` must not outlive an allocation."""
        addr = (self._next_free + align - 1) // align * align
        if addr + nbytes > len(self.global_mem):
            grown = np.zeros(max(addr + nbytes, 2 * len(self.global_mem)), np.uint8)
            grown[: self._next_free] = self.global_mem[: self._next_free]
            self.global_mem = grown
        self._next_free = addr + nbytes
        return addr

    def bind(
        self, meta, data: np.ndarray | None = None, nbytes: int | None = None, strides=None
    ) -> int:
        """Assign a global address to a tensor and optionally write its data.

        Addresses are owned by this device; rebinding the same tensor id is
        idempotent here, and meta.addr always reflects this device's address.
        ``nbytes`` overrides meta.nbytes for symbolically-shaped tensors.
        ``data`` is written as ``write_global`` does.
        """
        addr = self.bindings.get(meta.id)
        if addr is None:
            addr = self.alloc_global(nbytes if nbytes is not None else meta.nbytes)
            self.bindings[meta.id] = addr
        meta.addr = addr
        if data is not None:
            self.write_global(addr, np.asarray(data), meta.dtype, strides)
        return addr

    def is_bound(self, meta) -> bool:
        return meta.id in self.bindings

    def write_global(self, addr: int, data: np.ndarray, dtype: DType, strides=None) -> None:
        """Write ``data`` from ``addr`` on: in storage order, or through one
        view with element ``strides``."""
        if strides is not None:
            byte_strides = tuple(s * dtype.nbytes for s in strides)
            view = np.ndarray(data.shape, NP_DTYPES[dtype], self.global_mem, addr, byte_strides)
            view[...] = data
            return
        flat = np.ascontiguousarray(data).ravel()
        view = self._global_view(addr, flat.size, dtype)
        view[:] = flat.astype(NP_DTYPES[dtype])

    def read_global(self, addr: int, count: int, dtype: DType) -> np.ndarray:
        return self._global_view(addr, count, dtype).copy()

    def read_tensor(self, meta, shape: tuple[int, ...] | None = None) -> np.ndarray:
        addr = self.bindings.get(meta.id)
        if addr is None:
            raise VMError(f"tensor {meta.id} is not bound")
        shape = tuple(shape) if shape is not None else tuple(meta.shape)
        count = prod(shape)
        flat = self.read_global(addr, count, meta.dtype)
        return flat.reshape(shape)

    def _global_view(self, addr: int, count: int, dtype: DType) -> np.ndarray:
        nbytes = count * dtype.nbytes
        if addr < 0 or addr + nbytes > len(self.global_mem):
            raise VMError(f"global access [{addr}, {addr + nbytes}) out of bounds")
        return self.global_mem[addr : addr + nbytes].view(NP_DTYPES[dtype])


@dataclass
class ExecutionStats:
    """Modeled (not measured) execution statistics for one dispatch."""

    instruction_counts: dict[str, int] = field(default_factory=dict)
    global_bytes_moved: int = 0
    tiles_executed: int = 0
    per_core_busy: list[dict[str, float]] = field(default_factory=list)
    makespan: float = 0.0
    makespan_exec_only: float = 0.0
    decode_burst: float = 0.0
    decode_hidden: bool = False

    def count(self, kind: InstructionKind, n: int = 1) -> None:
        self.instruction_counts[kind.name] = (
            self.instruction_counts.get(kind.name, 0) + n
        )


def _dtype(code: int) -> DType:
    try:
        return DType(code)
    except ValueError:
        raise VMError(f"unsupported dtype code {code}") from None

def _local_view(core: Core, offset: int, count: int, dtype: DType) -> np.ndarray:
    nbytes = count * dtype.nbytes
    if offset < 0 or offset + nbytes > len(core.local):
        raise VMError(
            f"core {core.index}: local access [{offset}, {offset + nbytes}) "
            f"out of bounds"
        )
    return core.local[offset : offset + nbytes].view(NP_DTYPES[dtype])


def _operand_dtype(core: Core, offset: int, kind: InstructionKind) -> DType:
    try:
        return core.dtypes[offset]
    except KeyError:
        raise VMError(
            f"core {core.index}: {kind.name} reads untyped local buffer "
            f"at 0x{offset:x}"
        ) from None


def _read_f64(core: Core, offset: int, count: int, dtype: DType) -> np.ndarray:
    return _local_view(core, offset, count, dtype).astype(np.float64)


def _write_quantized(
    core: Core, offset: int, values: np.ndarray, dtype: DType
) -> None:
    _local_view(core, offset, values.size, dtype)[:] = to_storage(values, dtype)
    core.dtypes[offset] = dtype


# --- memory instructions ------------------------------------------------------


def _exec_load(insn, tile, core, device, stats) -> None:
    eff = insn.effective_size(tile)
    dtype = _dtype(insn.extras["dtype"])
    w = dtype.nbytes
    src = insn.srcs[0] + tile * insn.extras["tile_stride"] * w
    _local_view(core, insn.dst, eff, dtype)[:] = device._global_view(src, eff, dtype)
    core.dtypes[insn.dst] = dtype
    stats.global_bytes_moved += eff * w


def _exec_store(insn, tile, core, device, stats) -> None:
    if insn.tile_size >= insn.total_size and tile > 0:
        return  # non-advancing output: only tile 0 writes (keeps writes disjoint)
    eff = insn.effective_size(tile)
    dtype = _dtype(insn.extras["dtype"])
    w = dtype.nbytes
    dst = insn.dst + tile * insn.extras["tile_stride"] * w
    data = _local_view(core, insn.srcs[0], eff, dtype)
    device._global_view(dst, eff, dtype)[:] = data
    core.write_ranges.append((dst, dst + eff * w))
    stats.global_bytes_moved += eff * w


def _view_geometry(insn, tile) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-dim (origin, effective extent) of this tile's box."""
    ex = insn.extras
    coords = decompose_tile_index(tile, ex["grid"])
    origins, effs = [], []
    for c, step, off, size, full in zip(
        coords, ex["steps"], ex["offsets"], ex["sizes"], ex["fulls"]
    ):
        origin = c * step + off
        eff = min(size, full - origin)
        if eff < 1:
            raise VMError(f"{insn.kind.name}: empty tile box (origin {origin})")
        origins.append(origin)
        effs.append(eff)
    return tuple(origins), tuple(effs)


def _box_views(insn, tile, core, device, glob_base: int, local_base: int):
    """(global box, local box, dtype, global byte address) of one tile.

    The global box is one strided view, bounds-checked over every element
    it reaches; a zero stride repeats one element (a broadcast).  The local
    box is the leading corner of the dense ``sizes``-shaped tile.
    """
    ex = insn.extras
    dtype = _dtype(ex["dtype"])
    w = dtype.nbytes
    origins, effs = _view_geometry(insn, tile)
    strides, sizes = ex["strides"], ex["sizes"]
    addr = glob_base + sum(o * s for o, s in zip(origins, strides)) * w
    end = addr + (sum((e - 1) * s for e, s in zip(effs, strides)) + 1) * w
    if addr < 0 or end > len(device.global_mem):
        raise VMError(f"{insn.kind.name}: global access [{addr}, {end}) out of bounds")
    glob = np.ndarray(
        effs, NP_DTYPES[dtype], device.global_mem, addr, tuple(s * w for s in strides)
    )
    local = _local_view(core, local_base, prod(sizes), dtype).reshape(sizes)
    return glob, local[tuple(map(slice, effs))], dtype, addr


def _exec_view_load(insn, tile, core, device, stats) -> None:
    glob, local, dtype, _ = _box_views(
        insn, tile, core, device, insn.srcs[0], insn.dst
    )
    local[...] = glob
    core.dtypes[insn.dst] = dtype
    stats.global_bytes_moved += glob.size * dtype.nbytes


def _exec_view_store(insn, tile, core, device, stats) -> None:
    glob, local, dtype, addr = _box_views(
        insn, tile, core, device, insn.dst, insn.srcs[0]
    )
    glob[...] = local
    # one exact range per last-dim row, so the disjointness check sees
    # column-adjacent boxes as disjoint
    w, strides = dtype.nbytes, insn.extras["strides"]
    starts = [addr]
    for e, s in zip(glob.shape[:-1], strides[:-1]):
        starts = [a + i * s * w for a in starts for i in range(e)]
    span = ((glob.shape[-1] - 1) * strides[-1] + 1) * w
    core.write_ranges.extend((a, a + span) for a in starts)
    stats.global_bytes_moved += glob.size * dtype.nbytes


# --- compute instructions -----------------------------------------------------

_CMP_FNS = {
    CmpType.EQ: np.equal,
    CmpType.NE: np.not_equal,
    CmpType.LT: np.less,
    CmpType.LE: np.less_equal,
    CmpType.GT: np.greater,
    CmpType.GE: np.greater_equal,
}

# float64 in, float64 out; Adds/Muls also take the scalar, Cmp its CmpType
_ELEMENTWISE_FNS: dict[InstructionKind, Callable] = {
    InstructionKind.Copy: lambda x: x,
    InstructionKind.Cast: lambda x: x,
    InstructionKind.Sqrt: np.sqrt,
    InstructionKind.Abs: np.abs,
    InstructionKind.Log: np.log,
    InstructionKind.Exp: np.exp,
    InstructionKind.Round: np.round,
    InstructionKind.Floor: np.floor,
    InstructionKind.IsFinite: lambda x: np.isfinite(x).astype(np.float64),
    InstructionKind.Adds: np.add,
    InstructionKind.Muls: np.multiply,
    InstructionKind.Add: np.add,
    InstructionKind.Sub: np.subtract,
    InstructionKind.Mul: np.multiply,
    InstructionKind.Div: np.divide,
    InstructionKind.Min: np.minimum,
    InstructionKind.Max: np.maximum,
    InstructionKind.Pow: np.power,
    InstructionKind.Cmp: lambda a, b, cmp: (
        _CMP_FNS[CmpType(cmp)](a, b).astype(np.float64)
    ),
    InstructionKind.Select: lambda c, a, b: np.where(c != 0, a, b),
}


def _exec_elementwise(insn, tile, core, device, stats) -> None:
    """Read each operand as float64, apply the kind's function, and round
    the result once into the value operands' dtype.

    Value operands must share one recorded dtype (Select's condition may
    differ); Cast takes its source and result dtypes from the instruction.
    """
    kind, ex = insn.kind, insn.extras
    scalar = kind in (InstructionKind.Adds, InstructionKind.Muls)
    srcs = (insn.dst,) if scalar else insn.srcs
    if kind is InstructionKind.Cast:
        dtypes = [_dtype(ex["src_dtype"])]
        out = _dtype(ex["dst_dtype"])
    else:
        dtypes = [_operand_dtype(core, s, kind) for s in srcs]
        values = dtypes[1:] if kind is InstructionKind.Select else dtypes
        out = values[0]
        if any(d != out for d in values):
            names = ", ".join(d.name for d in values)
            raise VMError(f"{kind.name}: operand dtypes differ ({names})")
    eff = insn.effective_size(tile)
    args = [_read_f64(core, s, eff, d) for s, d in zip(srcs, dtypes)]
    if scalar:
        args.append(float(ex["scalar"]))
    elif kind is InstructionKind.Cmp:
        args.append(ex["cmp"])
    _write_quantized(core, insn.dst, _ELEMENTWISE_FNS[kind](*args), out)


def _reduce_geometry(insn, tile) -> tuple[int, int, int]:
    size, n = insn.extras["size"], insn.extras["n"]
    eff = insn.effective_size(tile)
    if eff % (size * n) != 0:
        raise VMError(f"{insn.kind.name}: effective size {eff} not row-aligned")
    return eff // (size * n), size, n


def _exec_reduce(insn, tile, core, device, stats) -> None:
    m_eff, size, n = _reduce_geometry(insn, tile)
    dtype = _operand_dtype(core, insn.srcs[0], insn.kind)
    x = _read_f64(core, insn.srcs[0], m_eff * size * n, dtype)
    x = x.reshape(m_eff, size, n)
    if insn.kind is InstructionKind.Sum:
        y = np.sum(x, axis=1)
    elif insn.kind is InstructionKind.ReduceMax:
        y = np.max(x, axis=1)
    else:
        y = np.min(x, axis=1)
    _write_quantized(core, insn.dst, y.ravel(), dtype)


def _exec_broadcast(insn, tile, core, device, stats) -> None:
    m_eff, size, n = _reduce_geometry(insn, tile)
    dtype = _operand_dtype(core, insn.srcs[0], insn.kind)
    x = _read_f64(core, insn.srcs[0], m_eff * n, dtype).reshape(m_eff, 1, n)
    y = np.broadcast_to(x, (m_eff, size, n))
    _write_quantized(core, insn.dst, np.ascontiguousarray(y).ravel(), dtype)


def matmul_effective(insn, tile) -> tuple[int, int, int, int]:
    """(ti, tj, m_eff, n_eff) for a matmul tile index."""
    ex = insn.extras
    ti, tj = decompose_tile_index(tile, (ex["grid_r"], ex["grid_c"]))
    m_eff = min(ex["m"], ex["m_total"] - ti * ex["m"])
    n_eff = min(ex["n"], ex["n_total"] - tj * ex["n"])
    return ti, tj, m_eff, n_eff


def _exec_matmul(insn, tile, core, device, stats) -> None:
    ex = insn.extras
    m, k, n = ex["m"], ex["k"], ex["n"]
    _, _, m_eff, n_eff = matmul_effective(insn, tile)
    dtype = _operand_dtype(core, insn.srcs[0], insn.kind)
    a = _local_view(core, insn.srcs[0], m * k, dtype).reshape(m, k)
    b = _local_view(core, insn.srcs[1], k * n, dtype).reshape(k, n)
    acc = np.matmul(
        a[:m_eff].astype(np.float32), b[:, :n_eff].astype(np.float32)
    )  # cube unit accumulates in f32
    out = _local_view(core, insn.dst, m * n, dtype).reshape(m, n)
    if ex["acc"]:
        acc = out[:m_eff, :n_eff].astype(np.float32) + acc
    out[:m_eff, :n_eff] = acc.astype(NP_DTYPES[dtype])
    core.dtypes[insn.dst] = dtype


def _exec_sync(insn, tile, core, device, stats) -> None:
    pass  # functional no-op; syncs drive the timing model only


INSTRUCTION_TABLE: dict[InstructionKind, Callable] = {
    InstructionKind.Load: _exec_load,
    InstructionKind.ViewLoad: _exec_view_load,
    InstructionKind.Store: _exec_store,
    InstructionKind.ViewStore: _exec_view_store,
    InstructionKind.Broadcast: _exec_broadcast,
    InstructionKind.Sum: _exec_reduce,
    InstructionKind.ReduceMax: _exec_reduce,
    InstructionKind.ReduceMin: _exec_reduce,
    InstructionKind.Matmul: _exec_matmul,
    InstructionKind.SyncSet: _exec_sync,
    InstructionKind.SyncWait: _exec_sync,
    **dict.fromkeys(_ELEMENTWISE_FNS, _exec_elementwise),
}


def exec_instruction(
    insn: VirtualInstruction,
    tile_index: int,
    core: Core,
    device: DeviceState,
    stats: ExecutionStats | None = None,
) -> None:
    stats = stats if stats is not None else ExecutionStats()
    with np.errstate(all="ignore"):
        INSTRUCTION_TABLE[insn.kind](insn, tile_index, core, device, stats)
    stats.count(insn.kind)


def tile_range(core_id: int, total_tiles: int, block_dim: int) -> range:
    """Tiles assigned to one core: [m*id, min(M, m*(id+1))) with m = ceil(M/N)."""
    m = ceil(total_tiles / block_dim)
    return range(m * core_id, min(total_tiles, m * (core_id + 1)))


def run_core(
    core_id: int,
    program: BytecodeProgram,
    device: DeviceState,
    stats: ExecutionStats | None = None,
) -> None:
    """Interpret the program body once per assigned tile on one core."""
    header = program.header
    if core_id >= header.block_dim:
        raise VMError(f"core id {core_id} >= block_dim {header.block_dim}")
    core = device.cores[core_id]
    stats = stats if stats is not None else ExecutionStats()
    insns = program.instructions()
    tiles = tile_range(core_id, header.total_tiles, header.block_dim)
    with np.errstate(all="ignore"):
        for tile in tiles:
            for insn in insns:
                fn = INSTRUCTION_TABLE[insn.kind]
                fn(insn, tile, core, device, stats)  # memory ops use the tile id
    if tiles:
        for insn in insns:
            stats.count(insn.kind, len(tiles))
        stats.tiles_executed += len(tiles)


def dispatch(
    program: BytecodeProgram,
    device: DeviceState,
    cfg: DeviceConfig | None = None,
    debug: bool = False,
) -> ExecutionStats:
    """Run the program on cores [0, block_dim)."""
    header = program.header
    if header.block_dim > device.num_cores:
        raise VMError(
            f"block_dim {header.block_dim} exceeds available cores "
            f"({device.num_cores})"
        )
    stats = ExecutionStats()
    for core_id in range(header.block_dim):
        device.cores[core_id].write_ranges.clear()
        run_core(core_id, program, device, stats)
    if debug:
        _check_disjoint_writes(device, header.block_dim)
    if cfg is not None:
        timing = simulate_timing(program, cfg)
        stats.per_core_busy = timing.per_core_busy
        stats.makespan = timing.makespan
        stats.makespan_exec_only = timing.makespan_exec_only
        stats.decode_burst = timing.decode_burst
        stats.decode_hidden = timing.decode_hidden
    return stats


def _check_disjoint_writes(device: DeviceState, count: int) -> None:
    ranges: list[tuple[int, int, int]] = []
    for core in device.cores[:count]:
        for lo, hi in core.write_ranges:
            ranges.append((lo, hi, core.index))
    ranges.sort()
    for (lo1, hi1, c1), (lo2, hi2, c2) in zip(ranges, ranges[1:]):
        if c1 != c2 and lo2 < hi1:
            raise VMError(
                f"cores {c1} and {c2} write overlapping global ranges "
                f"[{lo1},{hi1}) and [{lo2},{hi2})"
            )


# --- timing model --------------------------------------------------------------

_BUSY_KEYS = {Queue.DMA: "dma", Queue.VECTOR: "vector", Queue.CUBE: "cube"}


def _instruction_cost(insn: VirtualInstruction, tile: int, cfg: DeviceConfig) -> float:
    kind = insn.kind
    if kind is InstructionKind.Matmul:
        _, _, m_eff, n_eff = matmul_effective(insn, tile)
        return m_eff * insn.extras["k"] * n_eff * cfg.cube_cost_per_mac
    if kind not in MEMORY_KINDS:
        return insn.effective_size(tile) * cfg.vector_cost_per_elem
    w = _dtype(insn.extras["dtype"]).nbytes
    if kind in (InstructionKind.ViewLoad, InstructionKind.ViewStore):
        return prod(_view_geometry(insn, tile)[1]) * w * cfg.dma_cost_per_byte
    if kind is InstructionKind.Store and insn.tile_size >= insn.total_size and tile > 0:
        return 0.0  # non-advancing output: only tile 0 writes
    return insn.effective_size(tile) * w * cfg.dma_cost_per_byte


def _simulate_core(steps, tile_costs, cfg) -> tuple[float, float, dict[str, float]]:
    """(makespan, exec-only makespan, busy) of one core's tile cost sequence;
    the exec-only schedule runs alongside, its scalar clock held at 0."""
    dec, syn, scalar_t = cfg.decode_cost, cfg.sync_cost, 0.0
    qfree, qfree0 = dict.fromkeys(_BUSY_KEYS, 0.0), dict.fromkeys(_BUSY_KEYS, 0.0)
    gate, gate0 = dict(qfree), dict(qfree)
    release, release0 = {}, {}
    busy = {"scalar": 0.0, "dma": 0.0, "vector": 0.0, "cube": 0.0}
    for costs in tile_costs:
        for (sync, q, key, flag), cost in zip(steps, costs):
            scalar_t += dec
            busy["scalar"] += dec
            if sync is None:
                qfree[q] = max(qfree[q], scalar_t, gate[q]) + cost
                qfree0[q] = max(qfree0[q], gate0[q]) + cost
                busy[key] += cost
                continue
            scalar_t += syn
            busy["scalar"] += syn
            if sync is InstructionKind.SyncSet:
                release[flag] = qfree.get(q, scalar_t)
                release0[flag] = qfree0.get(q, 0.0)
            elif q in gate:
                gate[q] = max(gate[q], release.get(flag, 0.0))
                gate0[q] = max(gate0[q], release0.get(flag, 0.0))
    return max(scalar_t, *qfree.values()), max(0.0, *qfree0.values()), busy


def _core_schedules(program: BytecodeProgram, cfg: DeviceConfig) -> list[tuple]:
    """(makespan, exec-only makespan, busy) per core.  Costs depend on the
    tile, not the core, so each tile's cost vector is computed once and
    cores with equal cost sequences share one simulation."""
    insns, header = program.instructions(), program.header
    steps, costed = [], []  # costed: None for syncs, which take no queue time
    for insn in insns:
        sync = insn.kind if insn.kind.is_sync else None
        q = Queue(insn.extras["queue"]) if sync else insn.kind.queue
        steps.append((sync, q, _BUSY_KEYS.get(q), insn.extras.get("flag")))
        costed.append(None if sync else insn)
    vectors, ids = {}, []  # distinct cost vector -> id; each tile's id
    for t in range(header.total_tiles):
        vector = tuple(_instruction_cost(i, t, cfg) if i else 0.0 for i in costed)
        ids.append(vectors.setdefault(vector, len(vectors)))
    by_id, classes, schedules = list(vectors), {}, []
    for core_id in range(header.block_dim):
        tiles = tile_range(core_id, header.total_tiles, header.block_dim)
        key = tuple(ids[tiles.start : tiles.stop])
        if key not in classes:
            classes[key] = _simulate_core(steps, [by_id[i] for i in key], cfg)
        span, span0, busy = classes[key]
        schedules.append((span, span0, dict(busy)))  # each core owns its busy
    return schedules


def simulate_timing(program: BytecodeProgram, cfg: DeviceConfig) -> ExecutionStats:
    """Discrete-event model of decode/queue overlap; pure, touches no memory."""
    insns = program.instructions()
    spans, spans0, busy = zip(*_core_schedules(program, cfg))
    n_sync = sum(1 for i in insns if i.kind.is_sync)
    burst = cfg.decode_cost * len(insns) + cfg.sync_cost * n_sync
    return ExecutionStats(
        per_core_busy=list(busy),
        makespan=max(spans),
        makespan_exec_only=max(spans0),
        decode_burst=burst,
        decode_hidden=max(spans) <= max(spans0) + burst + 1e-9,
    )
