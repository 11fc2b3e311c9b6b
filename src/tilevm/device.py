"""Simulated multi-core SPMD accelerator and its bytecode virtual machine.

Each core owns private local memory and four queues (scalar decode, DMA,
vector, cube).  Functional execution is sequential per core: the VM walks
the decoded program body once per assigned tile, calling the matching
entry of the instruction table; memory instructions receive the tile index
for address generation.  A program's body is decoded once and shared by
every core.  The timing model is a separate discrete-event pass over the
same program that still charges a decode per record per tile; it never
touches memory.
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
    Queue,
    VirtualInstruction,
    decode_instruction,  # noqa: F401  (perfbench/tracing.py counts calls here)
    decompose_tile_index,
)
from .tiler import DeviceConfig

_NP = {
    DType.F16: np.float16,
    DType.F32: np.float32,
    DType.I32: np.int32,
    DType.U8: np.uint8,
}


class VMError(RuntimeError):
    pass


@dataclass
class Core:
    index: int
    local: np.ndarray
    dtypes: dict[int, DType] = field(default_factory=dict)
    write_ranges: list[tuple[int, int]] = field(default_factory=list)

    def reset(self) -> None:
        self.local[:] = 0
        self.dtypes.clear()
        self.write_ranges.clear()


class DeviceState:
    """Global memory arena plus N cores with private local memories."""

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
        addr = (self._next_free + align - 1) // align * align
        if addr + nbytes > len(self.global_mem):
            raise VMError(
                f"global memory exhausted: need {nbytes} bytes at {addr}, "
                f"arena is {len(self.global_mem)}"
            )
        self._next_free = addr + nbytes
        return addr

    def bind(
        self, meta, data: np.ndarray | None = None, nbytes: int | None = None
    ) -> int:
        """Assign a global address to a tensor and optionally write its data.

        Addresses are owned by this device; rebinding the same tensor id is
        idempotent here, and meta.addr always reflects this device's address.
        ``nbytes`` overrides meta.nbytes for symbolically-shaped tensors.
        """
        addr = self.bindings.get(meta.id)
        if addr is None:
            addr = self.alloc_global(nbytes if nbytes is not None else meta.nbytes)
            self.bindings[meta.id] = addr
        meta.addr = addr
        if data is not None:
            self.write_global(addr, np.asarray(data), meta.dtype)
        return addr

    def is_bound(self, meta) -> bool:
        return meta.id in self.bindings

    def write_global(self, addr: int, data: np.ndarray, dtype: DType) -> None:
        flat = np.ascontiguousarray(data).ravel()
        view = self._global_view(addr, flat.size, dtype)
        view[:] = flat.astype(_NP[dtype])

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
        return self.global_mem[addr : addr + nbytes].view(_NP[dtype])


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

    def count(self, kind: InstructionKind) -> None:
        self.instruction_counts[kind.name] = (
            self.instruction_counts.get(kind.name, 0) + 1
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
    return core.local[offset : offset + nbytes].view(_NP[dtype])


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
    view = _local_view(core, offset, values.size, dtype)
    with np.errstate(all="ignore", invalid="ignore"):
        if dtype in (DType.I32, DType.U8):
            vals = np.trunc(values)
            vals = np.where(np.isfinite(vals) & (np.abs(vals) < 2.0**62), vals, 0.0)
            view[:] = vals.astype(np.int64).astype(_NP[dtype])
        else:
            view[:] = values.astype(_NP[dtype])
    core.dtypes[offset] = dtype


# --- memory instructions ------------------------------------------------------


def _exec_load(insn, tile, core, device, stats) -> None:
    eff = insn.effective_size(tile)
    dtype = _dtype(insn.extras["dtype"])
    w = dtype.nbytes
    src = insn.srcs[0] + tile * insn.extras["tile_stride"] * w
    data = device.read_global(src, eff, dtype)
    _local_view(core, insn.dst, eff, dtype)[:] = data
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
    coords = decompose_tile_index(tile, ex["grid"], ex["order"])
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


def _box_runs(insn, tile):
    """Yield (local elem offset, global elem offset, run length) per last-dim row."""
    ex = insn.extras
    origins, effs = _view_geometry(insn, tile)
    sizes, strides = ex["sizes"], ex["strides"]
    dims = len(sizes)
    local_strides = [1] * dims
    for d in reversed(range(dims - 1)):
        local_strides[d] = local_strides[d + 1] * sizes[d + 1]
    outer = [range(e) for e in effs[:-1]]
    run = effs[-1]
    base_g = sum(o * s for o, s in zip(origins, strides))

    def walk(d: int, loc: int, glob: int):
        if d == dims - 1:
            yield loc, glob, run
            return
        for e in outer[d]:
            yield from walk(d + 1, loc + e * local_strides[d], glob + e * strides[d])

    yield from walk(0, 0, base_g)


def _exec_view_load(insn, tile, core, device, stats) -> None:
    dtype = _dtype(insn.extras["dtype"])
    w = dtype.nbytes
    stride_last = insn.extras["strides"][-1]
    moved = 0
    for loc, glob, run in _box_runs(insn, tile):
        src = insn.srcs[0] + glob * w
        if stride_last == 1:
            data = device.read_global(src, run, dtype)
        else:
            span = (run - 1) * stride_last + 1
            data = device.read_global(src, span, dtype)[::stride_last]
        _local_view(core, insn.dst + loc * w, run, dtype)[:] = data
        moved += run
    core.dtypes[insn.dst] = dtype
    stats.global_bytes_moved += moved * w


def _exec_view_store(insn, tile, core, device, stats) -> None:
    dtype = _dtype(insn.extras["dtype"])
    w = dtype.nbytes
    stride_last = insn.extras["strides"][-1]
    moved = 0
    for loc, glob, run in _box_runs(insn, tile):
        dst = insn.dst + glob * w
        data = _local_view(core, insn.srcs[0] + loc * w, run, dtype)
        if stride_last == 1:
            device._global_view(dst, run, dtype)[:] = data
            core.write_ranges.append((dst, dst + run * w))
        else:
            span = (run - 1) * stride_last + 1
            device._global_view(dst, span, dtype)[::stride_last] = data
            core.write_ranges.append((dst, dst + span * w))
        moved += run
    stats.global_bytes_moved += moved * w


# --- compute instructions -----------------------------------------------------

_UNARY_FNS = {
    InstructionKind.Sqrt: np.sqrt,
    InstructionKind.Abs: np.abs,
    InstructionKind.Log: np.log,
    InstructionKind.Exp: np.exp,
    InstructionKind.Round: np.round,
    InstructionKind.Floor: np.floor,
}

_BINARY_FNS = {
    InstructionKind.Add: np.add,
    InstructionKind.Sub: np.subtract,
    InstructionKind.Mul: np.multiply,
    InstructionKind.Div: np.divide,
    InstructionKind.Min: np.minimum,
    InstructionKind.Max: np.maximum,
    InstructionKind.Pow: np.power,
}

_CMP_FNS = {
    CmpType.EQ: np.equal,
    CmpType.NE: np.not_equal,
    CmpType.LT: np.less,
    CmpType.LE: np.less_equal,
    CmpType.GT: np.greater,
    CmpType.GE: np.greater_equal,
}


def _exec_unary(insn, tile, core, device, stats) -> None:
    eff = insn.effective_size(tile)
    dtype = _operand_dtype(core, insn.srcs[0], insn.kind)
    x = _read_f64(core, insn.srcs[0], eff, dtype)
    with np.errstate(all="ignore", invalid="ignore"):
        if insn.kind is InstructionKind.Copy:
            y = x
        elif insn.kind is InstructionKind.IsFinite:
            y = np.isfinite(x).astype(np.float64)
        else:
            y = _UNARY_FNS[insn.kind](x)
    _write_quantized(core, insn.dst, y, dtype)


def _exec_binary(insn, tile, core, device, stats) -> None:
    eff = insn.effective_size(tile)
    da = _operand_dtype(core, insn.srcs[0], insn.kind)
    db = _operand_dtype(core, insn.srcs[1], insn.kind)
    if da != db:
        raise VMError(f"{insn.kind.name}: operand dtypes differ ({da}, {db})")
    a = _read_f64(core, insn.srcs[0], eff, da)
    b = _read_f64(core, insn.srcs[1], eff, db)
    with np.errstate(all="ignore", invalid="ignore"):
        y = _BINARY_FNS[insn.kind](a, b)
    _write_quantized(core, insn.dst, y, da)


def _exec_scalar_imm(insn, tile, core, device, stats) -> None:
    eff = insn.effective_size(tile)
    dtype = _operand_dtype(core, insn.dst, insn.kind)
    x = _read_f64(core, insn.dst, eff, dtype)
    s = float(insn.extras["scalar"])
    y = x + s if insn.kind is InstructionKind.Adds else x * s
    _write_quantized(core, insn.dst, y, dtype)


def _exec_cmp(insn, tile, core, device, stats) -> None:
    eff = insn.effective_size(tile)
    dtype = _operand_dtype(core, insn.srcs[0], insn.kind)
    a = _read_f64(core, insn.srcs[0], eff, dtype)
    b = _read_f64(core, insn.srcs[1], eff, dtype)
    y = _CMP_FNS[CmpType(insn.extras["cmp"])](a, b).astype(np.float64)
    _write_quantized(core, insn.dst, y, dtype)


def _exec_cast(insn, tile, core, device, stats) -> None:
    eff = insn.effective_size(tile)
    src_dtype = _dtype(insn.extras["src_dtype"])
    dst_dtype = _dtype(insn.extras["dst_dtype"])
    x = _read_f64(core, insn.srcs[0], eff, src_dtype)
    _write_quantized(core, insn.dst, x, dst_dtype)


def _exec_select(insn, tile, core, device, stats) -> None:
    eff = insn.effective_size(tile)
    dc = _operand_dtype(core, insn.srcs[0], insn.kind)
    dv = _operand_dtype(core, insn.srcs[1], insn.kind)
    cond = _read_f64(core, insn.srcs[0], eff, dc)
    xm = _read_f64(core, insn.srcs[1], eff, dv)
    xn = _read_f64(core, insn.srcs[2], eff, dv)
    _write_quantized(core, insn.dst, np.where(cond != 0, xm, xn), dv)


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
    with np.errstate(all="ignore", invalid="ignore"):
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
    ti, tj = decompose_tile_index(tile, (ex["grid_r"], ex["grid_c"]), ex["order"])
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
    out[:m_eff, :n_eff] = acc.astype(_NP[dtype])
    core.dtypes[insn.dst] = dtype


def _exec_sync(insn, tile, core, device, stats) -> None:
    pass  # functional no-op; syncs drive the timing model only


INSTRUCTION_TABLE: dict[InstructionKind, Callable] = {
    InstructionKind.Load: _exec_load,
    InstructionKind.ViewLoad: _exec_view_load,
    InstructionKind.Store: _exec_store,
    InstructionKind.ViewStore: _exec_view_store,
    InstructionKind.Copy: _exec_unary,
    InstructionKind.Broadcast: _exec_broadcast,
    InstructionKind.Sqrt: _exec_unary,
    InstructionKind.Abs: _exec_unary,
    InstructionKind.Log: _exec_unary,
    InstructionKind.Exp: _exec_unary,
    InstructionKind.Pow: _exec_binary,
    InstructionKind.Round: _exec_unary,
    InstructionKind.Floor: _exec_unary,
    InstructionKind.IsFinite: _exec_unary,
    InstructionKind.Adds: _exec_scalar_imm,
    InstructionKind.Muls: _exec_scalar_imm,
    InstructionKind.Add: _exec_binary,
    InstructionKind.Sub: _exec_binary,
    InstructionKind.Mul: _exec_binary,
    InstructionKind.Div: _exec_binary,
    InstructionKind.Min: _exec_binary,
    InstructionKind.Max: _exec_binary,
    InstructionKind.Cmp: _exec_cmp,
    InstructionKind.Cast: _exec_cast,
    InstructionKind.Sum: _exec_reduce,
    InstructionKind.ReduceMax: _exec_reduce,
    InstructionKind.ReduceMin: _exec_reduce,
    InstructionKind.Select: _exec_select,
    InstructionKind.Matmul: _exec_matmul,
    InstructionKind.SyncSet: _exec_sync,
    InstructionKind.SyncWait: _exec_sync,
}


def exec_instruction(
    insn: VirtualInstruction,
    tile_index: int,
    core: Core,
    device: DeviceState,
    stats: ExecutionStats | None = None,
) -> None:
    stats = stats if stats is not None else ExecutionStats()
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
    core: Core | None = None,
) -> None:
    """Interpret the program body once per assigned tile on one core."""
    header = program.header
    if core_id >= header.block_dim:
        raise VMError(f"core id {core_id} >= block_dim {header.block_dim}")
    core = core if core is not None else device.cores[core_id]
    stats = stats if stats is not None else ExecutionStats()
    insns = program.instructions()
    for tile in tile_range(core_id, header.total_tiles, header.block_dim):
        for insn in insns:
            fn = INSTRUCTION_TABLE[insn.kind]
            fn(insn, tile, core, device, stats)  # memory ops use the tile id
            stats.count(insn.kind)
        stats.tiles_executed += 1


def dispatch(
    program: BytecodeProgram,
    device: DeviceState,
    cfg: DeviceConfig | None = None,
    debug: bool = False,
    core_offset: int = 0,
) -> ExecutionStats:
    """Run the program on cores [core_offset, core_offset + block_dim)."""
    header = program.header
    if core_offset + header.block_dim > device.num_cores:
        raise VMError(
            f"block_dim {header.block_dim} exceeds available cores "
            f"({device.num_cores - core_offset})"
        )
    stats = ExecutionStats()
    for core_id in range(header.block_dim):
        core = device.cores[core_offset + core_id]
        core.write_ranges.clear()
        run_core(core_id, program, device, stats, core=core)
    if debug:
        _check_disjoint_writes(device, core_offset, header.block_dim)
    if cfg is not None:
        timing = simulate_timing(program, cfg)
        stats.per_core_busy = timing.per_core_busy
        stats.makespan = timing.makespan
        stats.makespan_exec_only = timing.makespan_exec_only
        stats.decode_burst = timing.decode_burst
        stats.decode_hidden = timing.decode_hidden
    return stats


def _check_disjoint_writes(device: DeviceState, offset: int, count: int) -> None:
    ranges: list[tuple[int, int, int]] = []
    for core in device.cores[offset : offset + count]:
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


def _instruction_cost(insn: VirtualInstruction, tile: int, cfg: DeviceConfig) -> float:
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


def _simulate_core(
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
                cost = _instruction_cost(insn, tile, cfg)
                start = max(qfree[q], decode_done, gate[q])
                qfree[q] = start + cost
                busy[{Queue.DMA: "dma", Queue.VECTOR: "vector", Queue.CUBE: "cube"}[q]] += cost
    return max(scalar_t, *qfree.values()), busy


def simulate_timing(program: BytecodeProgram, cfg: DeviceConfig) -> ExecutionStats:
    """Discrete-event model of decode/queue overlap; pure, touches no memory."""
    insns = program.instructions()
    header = program.header
    stats = ExecutionStats()
    spans, spans0 = [], []
    for core_id in range(header.block_dim):
        tiles = tile_range(core_id, header.total_tiles, header.block_dim)
        span, busy = _simulate_core(insns, tiles, cfg, cfg.decode_cost, cfg.sync_cost)
        span0, _ = _simulate_core(insns, tiles, cfg, 0.0, 0.0)
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


def dispatch_stacked(
    stages: list[list[tuple[BytecodeProgram, int, int]]],
    device: DeviceState,
    cfg: DeviceConfig | None = None,
    debug: bool = False,
) -> ExecutionStats:
    """Run a stacked plan: programs within a stage occupy disjoint core
    ranges (spatial), consecutive stages share cores sequentially (temporal)."""
    total = ExecutionStats()
    avail = [0.0] * device.num_cores
    for stage in stages:
        seen: set[int] = set()
        for program, lo, hi in stage:
            if program.header.block_dim != hi - lo:
                raise VMError("stacked member block_dim != assigned core range")
            if seen & set(range(lo, hi)):
                raise VMError("spatially stacked programs share cores")
            seen.update(range(lo, hi))
            stats = dispatch(program, device, cfg=None, debug=debug, core_offset=lo)
            total.global_bytes_moved += stats.global_bytes_moved
            total.tiles_executed += stats.tiles_executed
            for name, n in stats.instruction_counts.items():
                total.instruction_counts[name] = (
                    total.instruction_counts.get(name, 0) + n
                )
            if cfg is not None:
                # rigid per-core schedule: a member starts when its core frees
                for i, span in enumerate(_member_spans(program, cfg)):
                    avail[lo + i] += span
    if cfg is not None:
        total.makespan = max(avail, default=0.0)
    return total


def _member_spans(program: BytecodeProgram, cfg: DeviceConfig) -> list[float]:
    insns = program.instructions()
    spans = []
    for core_id in range(program.header.block_dim):
        tiles = tile_range(core_id, program.header.total_tiles, program.header.block_dim)
        span, _ = _simulate_core(insns, tiles, cfg, cfg.decode_cost, cfg.sync_cost)
        spans.append(span)
    return spans
