"""Simulated multi-core SPMD accelerator and its bytecode virtual machine.

Each core owns a row of one ``(cores, local_mem_bytes)`` local-memory block
and four queues (scalar decode, DMA, vector, cube).  With ``m = ceil(M/N)``
tiles per core, core ``c`` runs tiles ``[m*c, min(M, m*(c+1)))``, so tile
step ``k`` runs tile ``m*c + k`` on every core that has one.  The VM runs
the steps in lockstep: each instruction is one handler call over a lane
set, a contiguous run of cores at one step, and sees their tiles and local
rows as one array with a leading lane axis.  Lane sets are chunked so that
a call's float64 working set stays near L2 size.  A tile that is ragged
for a sized record (the tail tile) runs as a one-lane set at its own tile
index, which is also how ``exec_instruction`` runs one core.  Global
addresses are affine in the lane for ``Load``/``Store`` and for views with
one non-unit grid dimension, so those copy one strided view; other views
and every ``Matmul`` loop over the lanes inside their handler.  Syncs are
functional no-ops and are skipped.  A program's body is decoded once and
shared by every core.

The timing model is a separate discrete-event pass over the same program:
it computes each record's costs over all tiles at once, simulates each
distinct core once, still charges a decode per record per tile, and never
touches memory.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from math import ceil, prod
from operator import itemgetter
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

# Elements per lane set: lanes x the program's largest tile.  At 8 bytes
# per float64 element, a handler's two or three operands stay near L2 size.
LANE_CHUNK_ELEMS = 1 << 16


class VMError(RuntimeError):
    pass


@dataclass
class Core:
    index: int
    local: np.ndarray  # this core's row of DeviceState.local
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
        self.local = np.zeros((num_cores, local_mem_bytes), dtype=np.uint8)
        self.cores = [Core(i, row) for i, row in enumerate(self.local)]
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


class _Lanes:
    """A contiguous run of cores at one tile step: lane i is ``cores[i]``,
    running tile ``tile + i * stride`` on row i of ``local``."""

    __slots__ = ("cores", "local", "tile", "stride")

    def __init__(self, cores: list[Core], local: np.ndarray, tile: int, stride: int = 0):
        self.cores, self.local, self.tile, self.stride = cores, local, tile, stride

    def __len__(self) -> int:
        return len(self.cores)

    def lane(self, i: int) -> "_Lanes":
        return _Lanes(self.cores[i : i + 1], self.local[i : i + 1], self.tile + i * self.stride)


class _Diverged(Exception):
    """The lanes of a set hold different dtypes for one operand (left in
    local memory by earlier dispatches); the instruction runs lane by lane."""


def _dtype(code: int) -> DType:
    try:
        return DType(code)
    except ValueError:
        raise VMError(f"unsupported dtype code {code}") from None


def _local_view(lanes: _Lanes, offset: int, count: int, dtype: DType) -> np.ndarray:
    """``count`` elements at ``offset`` of every lane: shape (lanes, count)."""
    nbytes = count * dtype.nbytes
    if offset < 0 or offset + nbytes > lanes.local.shape[1]:
        raise VMError(
            f"core {lanes.cores[0].index}: local access [{offset}, {offset + nbytes}) "
            f"out of bounds"
        )
    return lanes.local[:, offset : offset + nbytes].view(NP_DTYPES[dtype])


def _global_lanes(
    device: DeviceState, addr: int, count: int, dtype: DType, stride: int, lanes: int
) -> np.ndarray:
    """``count`` elements from ``addr`` on, per lane, lane i at ``addr +
    i*stride``: shape (lanes, count)."""
    w = dtype.nbytes
    if addr < 0 or addr + (lanes - 1) * stride + count * w > len(device.global_mem):
        for i in range(lanes):  # raises for the first lane out of bounds
            device._global_view(addr + i * stride, count, dtype)
    return np.ndarray(
        (lanes, count), NP_DTYPES[dtype], device.global_mem, addr, (stride, w)
    )


def _operand_dtype(lanes: _Lanes, offset: int, kind: InstructionKind) -> DType:
    found = [core.dtypes.get(offset) for core in lanes.cores]
    dtype = found[0]
    if dtype is None or found.count(dtype) != len(found):
        for core, d in zip(lanes.cores, found):
            if d is None:
                raise VMError(
                    f"core {core.index}: {kind.name} reads untyped local buffer "
                    f"at 0x{offset:x}"
                )
        raise _Diverged
    return dtype


def _set_dtype(lanes: _Lanes, offset: int, dtype: DType) -> None:
    for core in lanes.cores:
        core.dtypes[offset] = dtype


def _read_f64(lanes: _Lanes, offset: int, count: int, dtype: DType) -> np.ndarray:
    return _local_view(lanes, offset, count, dtype).astype(np.float64)


def _write_quantized(
    lanes: _Lanes, offset: int, values: np.ndarray, dtype: DType
) -> None:
    """Round (lanes, count) float64 ``values`` into ``dtype`` at ``offset``."""
    _local_view(lanes, offset, values.shape[1], dtype)[...] = to_storage(values, dtype)
    _set_dtype(lanes, offset, dtype)


# --- memory instructions ------------------------------------------------------


def _exec_load(insn, lanes, device, stats) -> None:
    eff = insn.effective_size(lanes.tile)
    dtype = _dtype(insn.extras["dtype"])
    w = dtype.nbytes
    step = insn.extras["tile_stride"] * w
    src = _global_lanes(
        device, insn.srcs[0] + lanes.tile * step, eff, dtype, lanes.stride * step, len(lanes)
    )
    _local_view(lanes, insn.dst, eff, dtype)[...] = src
    _set_dtype(lanes, insn.dst, dtype)
    stats.global_bytes_moved += len(lanes) * eff * w


def _exec_store(insn, lanes, device, stats) -> None:
    if insn.tile_size >= insn.total_size:
        if lanes.tile > 0:
            return  # non-advancing output: only tile 0 writes (keeps writes disjoint)
        lanes = lanes.lane(0)
    eff = insn.effective_size(lanes.tile)
    dtype = _dtype(insn.extras["dtype"])
    w = dtype.nbytes
    step = insn.extras["tile_stride"] * w
    dst, stride = insn.dst + lanes.tile * step, lanes.stride * step
    data = _local_view(lanes, insn.srcs[0], eff, dtype)
    _global_lanes(device, dst, eff, dtype, stride, len(lanes))[...] = data
    for i, core in enumerate(lanes.cores):
        lo = dst + i * stride
        core.write_ranges.append((lo, lo + eff * w))
    stats.global_bytes_moved += len(lanes) * eff * w


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


def _box(insn, tile, device, glob_base: int) -> tuple[int, tuple[int, ...], int]:
    """(global byte address, effective extents, byte span) of one tile's
    box, bounds-checked over every element it reaches."""
    w = _dtype(insn.extras["dtype"]).nbytes
    origins, effs = _view_geometry(insn, tile)
    strides = insn.extras["strides"]
    addr = glob_base + sum(o * s for o, s in zip(origins, strides)) * w
    span = (sum((e - 1) * s for e, s in zip(effs, strides)) + 1) * w
    if addr < 0 or addr + span > len(device.global_mem):
        raise VMError(
            f"{insn.kind.name}: global access [{addr}, {addr + span}) out of bounds"
        )
    return addr, effs, span


def _box_lane_stride(insn, lanes, device, glob_base, effs, span) -> int | None:
    """Byte distance between consecutive lanes' boxes when the set's boxes
    form one strided view: equal extents, and a grid with at most one
    non-unit dimension that does not wrap inside the set.  A store also
    needs lanes whose boxes do not overlap.  None otherwise."""
    n, ex = len(lanes), insn.extras
    if n == 1:
        return 0
    moving = [d for d, g in enumerate(ex["grid"]) if g > 1]
    if not moving:
        return 0 if insn.kind is InstructionKind.ViewLoad else None
    if len(moving) > 1:
        return None
    d, last = moving[0], lanes.tile + (n - 1) * lanes.stride
    if lanes.tile // ex["grid"][d] != last // ex["grid"][d]:
        return None
    try:
        _, last_effs, _ = _box(insn, last, device, glob_base)
    except VMError:
        return None  # the lane-by-lane path raises for the first failing lane
    if last_effs != effs:
        return None
    w = _dtype(ex["dtype"]).nbytes
    stride = lanes.stride * ex["steps"][d] * ex["strides"][d] * w
    if insn.kind is InstructionKind.ViewStore and stride < span:
        return None
    return stride


def _box_views(insn, lanes, device, glob_base: int, local_base: int, dtype: DType):
    """[(cores, global boxes, local boxes, byte address, lane stride)] with
    a leading lane axis on both boxes: one item for the whole set when its
    boxes form one strided view, else one item per lane.

    A zero element stride repeats one element (a broadcast).  The local box
    is the leading corner of each lane's dense ``sizes``-shaped tile.
    """
    addr, effs, span = _box(insn, lanes.tile, device, glob_base)
    stride = _box_lane_stride(insn, lanes, device, glob_base, effs, span)
    n, w, sizes = len(lanes), dtype.nbytes, insn.extras["sizes"]
    local = _local_view(lanes, local_base, prod(sizes), dtype).reshape(n, *sizes)
    strides = tuple(s * w for s in insn.extras["strides"])
    if stride is not None:
        glob = np.ndarray((n, *effs), NP_DTYPES[dtype], device.global_mem, addr, (stride, *strides))
        return [(lanes.cores, glob, local[(slice(None), *map(slice, effs))], addr, stride)]
    items = []
    for i in range(n):
        if i:
            addr, effs, _ = _box(insn, lanes.tile + i * lanes.stride, device, glob_base)
        glob = np.ndarray((1, *effs), NP_DTYPES[dtype], device.global_mem, addr, (0, *strides))
        box = local[(slice(i, i + 1), *map(slice, effs))]
        items.append((lanes.cores[i : i + 1], glob, box, addr, 0))
    return items


def _row_starts(addr: int, effs, strides, w: int) -> list[int]:
    """Byte address of each last-dim row of a box, row-major."""
    starts = [addr]
    for e, s in zip(effs[:-1], strides[:-1]):
        starts = [a + i * s * w for a in starts for i in range(e)]
    return starts


def _exec_view_load(insn, lanes, device, stats) -> None:
    dtype = _dtype(insn.extras["dtype"])
    for _, glob, local, _, _ in _box_views(
        insn, lanes, device, insn.srcs[0], insn.dst, dtype
    ):
        local[...] = glob
        stats.global_bytes_moved += glob.size * dtype.nbytes
    _set_dtype(lanes, insn.dst, dtype)


def _exec_view_store(insn, lanes, device, stats) -> None:
    dtype = _dtype(insn.extras["dtype"])
    w, strides = dtype.nbytes, insn.extras["strides"]
    for cores, glob, local, addr, stride in _box_views(
        insn, lanes, device, insn.dst, insn.srcs[0], dtype
    ):
        glob[...] = local
        # one exact range per last-dim row, so the disjointness check sees
        # column-adjacent boxes as disjoint
        effs = glob.shape[1:]
        starts = _row_starts(addr, effs, strides, w)
        span = ((effs[-1] - 1) * strides[-1] + 1) * w
        for i, core in enumerate(cores):
            base = i * stride
            core.write_ranges.extend((base + a, base + a + span) for a in starts)
        stats.global_bytes_moved += glob.size * w


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


def _exec_elementwise(insn, lanes, device, stats) -> None:
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
        dtypes = [_operand_dtype(lanes, s, kind) for s in srcs]
        values = dtypes[1:] if kind is InstructionKind.Select else dtypes
        out = values[0]
        if any(d != out for d in values):
            names = ", ".join(d.name for d in values)
            raise VMError(f"{kind.name}: operand dtypes differ ({names})")
    eff = insn.effective_size(lanes.tile)
    args = [_read_f64(lanes, s, eff, d) for s, d in zip(srcs, dtypes)]
    if scalar:
        args.append(float(ex["scalar"]))
    elif kind is InstructionKind.Cmp:
        args.append(ex["cmp"])
    _write_quantized(lanes, insn.dst, _ELEMENTWISE_FNS[kind](*args), out)


def _reduce_geometry(insn, tile) -> tuple[int, int, int]:
    size, n = insn.extras["size"], insn.extras["n"]
    eff = insn.effective_size(tile)
    if eff % (size * n) != 0:
        raise VMError(f"{insn.kind.name}: effective size {eff} not row-aligned")
    return eff // (size * n), size, n


def _exec_reduce(insn, lanes, device, stats) -> None:
    m_eff, size, n = _reduce_geometry(insn, lanes.tile)
    dtype = _operand_dtype(lanes, insn.srcs[0], insn.kind)
    x = _read_f64(lanes, insn.srcs[0], m_eff * size * n, dtype)
    x = x.reshape(len(lanes), m_eff, size, n)
    if insn.kind is InstructionKind.Sum:
        y = np.sum(x, axis=2)
    elif insn.kind is InstructionKind.ReduceMax:
        y = np.max(x, axis=2)
    else:
        y = np.min(x, axis=2)
    _write_quantized(lanes, insn.dst, y.reshape(len(lanes), -1), dtype)


def _exec_broadcast(insn, lanes, device, stats) -> None:
    m_eff, size, n = _reduce_geometry(insn, lanes.tile)
    dtype = _operand_dtype(lanes, insn.srcs[0], insn.kind)
    x = _read_f64(lanes, insn.srcs[0], m_eff * n, dtype)
    y = np.broadcast_to(x.reshape(len(lanes), m_eff, 1, n), (len(lanes), m_eff, size, n))
    _write_quantized(lanes, insn.dst, y.reshape(len(lanes), -1), dtype)


def matmul_effective(insn, tile) -> tuple[int, int, int, int]:
    """(ti, tj, m_eff, n_eff) for a matmul tile index."""
    ex = insn.extras
    ti, tj = decompose_tile_index(tile, (ex["grid_r"], ex["grid_c"]))
    m_eff = min(ex["m"], ex["m_total"] - ti * ex["m"])
    n_eff = min(ex["n"], ex["n_total"] - tj * ex["n"])
    return ti, tj, m_eff, n_eff


def _exec_matmul(insn, lanes, device, stats) -> None:
    """One ``np.matmul`` per lane, on the same operands a lone core would
    pass, so the cube unit's f32 bits do not depend on the lane count."""
    ex = insn.extras
    m, k, n = ex["m"], ex["k"], ex["n"]
    dtype = _operand_dtype(lanes, insn.srcs[0], insn.kind)
    a_rows = _local_view(lanes, insn.srcs[0], m * k, dtype)
    b_rows = _local_view(lanes, insn.srcs[1], k * n, dtype)
    out_rows = _local_view(lanes, insn.dst, m * n, dtype)
    for i, (a, b, out) in enumerate(zip(a_rows, b_rows, out_rows)):
        _, _, m_eff, n_eff = matmul_effective(insn, lanes.tile + i * lanes.stride)
        a, b, out = a.reshape(m, k), b.reshape(k, n), out.reshape(m, n)
        acc = np.matmul(
            a[:m_eff].astype(np.float32), b[:, :n_eff].astype(np.float32)
        )  # cube unit accumulates in f32
        if ex["acc"]:
            acc = out[:m_eff, :n_eff].astype(np.float32) + acc
        out[:m_eff, :n_eff] = acc.astype(NP_DTYPES[dtype])
    _set_dtype(lanes, insn.dst, dtype)


def _exec_sync(insn, lanes, device, stats) -> None:
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

# records whose handlers take their extent from effective_size
_SIZED_KINDS = frozenset(INSTRUCTION_TABLE) - {
    InstructionKind.ViewLoad,
    InstructionKind.ViewStore,
    InstructionKind.Matmul,
    InstructionKind.SyncSet,
    InstructionKind.SyncWait,
}


def exec_instruction(
    insn: VirtualInstruction,
    tile_index: int,
    core: Core,
    device: DeviceState,
    stats: ExecutionStats | None = None,
) -> None:
    """Run one instruction on one core at one tile index."""
    stats = stats if stats is not None else ExecutionStats()
    with np.errstate(all="ignore"):
        lanes = _Lanes([core], core.local[np.newaxis], tile_index)
        INSTRUCTION_TABLE[insn.kind](insn, lanes, device, stats)
    stats.count(insn.kind)


def tile_range(core_id: int, total_tiles: int, block_dim: int) -> range:
    """Tiles assigned to one core: [m*id, min(M, m*(id+1))) with m = ceil(M/N)."""
    m = ceil(total_tiles / block_dim)
    return range(m * core_id, min(total_tiles, m * (core_id + 1)))


def _lane_sets(insns, device: DeviceState, total: int, block_dim: int):
    """The lane sets of every tile step, in execution order.

    Step k runs tile m*c + k on each core c that has one.  Tiles below
    ``full`` fill every sized record, so those lanes share their extents
    and run in chunks; each later tile runs as a one-lane set.
    """
    m = ceil(total / block_dim)
    full = min(
        (
            i.total_size // i.tile_size
            for i in insns
            if i.kind in _SIZED_KINDS and i.tile_size < i.total_size
        ),
        default=total,
    )
    elems = max(min(i.tile_size, i.total_size) for i in insns)
    chunk = max(1, LANE_CHUNK_ELEMS // elems)
    for k in range(m):
        lanes = (total - 1 - k) // m + 1
        regular = min(lanes, max(0, -(-(full - k) // m)))
        for lo in range(0, regular, chunk):
            hi = min(lo + chunk, regular)
            yield _Lanes(device.cores[lo:hi], device.local[lo:hi], m * lo + k, m)
        for c in range(regular, lanes):
            yield _Lanes(device.cores[c : c + 1], device.local[c : c + 1], m * c + k)


def dispatch(
    program: BytecodeProgram,
    device: DeviceState,
    cfg: DeviceConfig | None = None,
    debug: bool = False,
) -> ExecutionStats:
    """Run the program on cores [0, block_dim), one tile step at a time."""
    header = program.header
    if header.block_dim > device.num_cores:
        raise VMError(
            f"block_dim {header.block_dim} exceeds available cores "
            f"({device.num_cores})"
        )
    stats = ExecutionStats()
    for core in device.cores[: header.block_dim]:
        core.write_ranges.clear()
    insns = program.instructions()
    body = [(INSTRUCTION_TABLE[i.kind], i) for i in insns if not i.kind.is_sync]
    with np.errstate(all="ignore"):
        for lanes in _lane_sets(insns, device, header.total_tiles, header.block_dim):
            for fn, insn in body:
                try:
                    fn(insn, lanes, device, stats)
                except _Diverged:
                    for i in range(len(lanes)):
                        fn(insn, lanes.lane(i), device, stats)
    for insn in insns:
        stats.count(insn.kind, header.total_tiles)
    stats.tiles_executed = header.total_tiles
    if debug:
        writes = _check_disjoint_writes(device, header.block_dim)
        _check_load_store_hazards(program, device, writes)
    if cfg is not None:
        timing = simulate_timing(program, cfg)
        stats.per_core_busy = timing.per_core_busy
        stats.makespan = timing.makespan
        stats.makespan_exec_only = timing.makespan_exec_only
        stats.decode_burst = timing.decode_burst
        stats.decode_hidden = timing.decode_hidden
    return stats


def _check_disjoint_writes(device: DeviceState, count: int) -> list[tuple[int, int, int]]:
    """Raise if two cores wrote overlapping ranges; returns every write as
    (lo, hi, core), sorted."""
    ranges: list[tuple[int, int, int]] = []
    for core in device.cores[:count]:
        for lo, hi in core.write_ranges:
            ranges.append((lo, hi, core.index))
    ranges.sort()
    # in order of lo: the range reaching furthest so far, and the one
    # reaching furthest among the other cores' ranges (at first, a
    # sentinel of no core that reaches nothing)
    first = second = (0, 0, -1)
    for r in ranges:
        lo, hi, core = r
        other = second if first[2] == core else first
        if lo < other[1]:
            raise VMError(
                f"cores {other[2]} and {core} write overlapping global ranges "
                f"[{other[0]},{other[1]}) and [{lo},{hi})"
            )
        if hi > first[1]:
            if first[2] != core:
                second = first
            first = r
        elif hi > second[1] and first[2] != core:
            second = r
    return ranges


def _load_extent(insn, total_tiles: int) -> tuple[int, int]:
    """A byte range holding everything one load record reads over a dispatch."""
    ex = insn.extras
    w = _dtype(ex["dtype"]).nbytes
    if insn.kind is InstructionKind.Load:  # tile t reads up to t*stride + eff(t), rising in t
        last = total_tiles - 1
        end = last * ex["tile_stride"] + insn.effective_size(last)
        return insn.srcs[0], insn.srcs[0] + end * w
    reach = sum((f - 1) * s for f, s in zip(ex["fulls"], ex["strides"])) + 1
    return insn.srcs[0], insn.srcs[0] + reach * w


def _load_ranges(insn, tile: int, device: DeviceState) -> list[tuple[int, int]]:
    """The byte ranges one tile of a load record read: one per last-dim row."""
    ex = insn.extras
    w = _dtype(ex["dtype"]).nbytes
    if insn.kind is InstructionKind.Load:
        lo = insn.srcs[0] + tile * ex["tile_stride"] * w
        return [(lo, lo + insn.effective_size(tile) * w)]
    addr, effs, _ = _box(insn, tile, device, insn.srcs[0])
    span = ((effs[-1] - 1) * ex["strides"][-1] + 1) * w
    return [(a, a + span) for a in _row_starts(addr, effs, ex["strides"], w)]


def _check_load_store_hazards(
    program: BytecodeProgram, device: DeviceState, writes: list[tuple[int, int, int]]
) -> None:
    """Raise if a core loads a global range that another core stores in the
    same dispatch.  Lockstep interleaves cores that would otherwise run one
    after another, so such a load may or may not see the store."""
    header = program.header
    if not writes:
        return
    w_lo, w_hi = writes[0][0], max(map(itemgetter(1), writes))
    loads = []
    for insn in program.instructions():
        if insn.kind in (InstructionKind.Load, InstructionKind.ViewLoad):
            lo, hi = _load_extent(insn, header.total_tiles)
            if lo < w_hi and w_lo < hi:
                loads.append(insn)
    if not loads:
        return
    los = [lo for lo, _, _ in writes]
    reach = list(accumulate((hi for _, hi, _ in writes), max))  # prefix max of ends
    for core in range(header.block_dim):
        for tile in tile_range(core, header.total_tiles, header.block_dim):
            for insn in loads:
                for lo, hi in _load_ranges(insn, tile, device):
                    j = bisect_left(los, hi) - 1  # writes from j down start before hi
                    while j >= 0 and reach[j] > lo:
                        s_lo, s_hi, s_core = writes[j]
                        if s_core != core and s_hi > lo:
                            raise VMError(
                                f"core {core} loads global range [{lo},{hi}) that "
                                f"core {s_core} stores [{s_lo},{s_hi}) in the same dispatch"
                            )
                        j -= 1


# --- timing model --------------------------------------------------------------

_BUSY_KEYS = {Queue.DMA: "dma", Queue.VECTOR: "vector", Queue.CUBE: "cube"}


def _cost_column(insn: VirtualInstruction, tiles: np.ndarray, cfg: DeviceConfig):
    """One record's cost on every tile: a float when it is the same on all
    of them, else a float64 array.  Products keep the integer-first order
    of a per-tile evaluation, so each cost is bit-identical to it."""
    kind, ex = insn.kind, insn.extras
    if kind.is_sync:
        return 0.0  # syncs take no queue time
    if kind is InstructionKind.Matmul:
        ti = tiles // ex["grid_c"] % ex["grid_r"]
        m_eff = np.minimum(ex["m"], ex["m_total"] - ti * ex["m"])
        n_eff = np.minimum(ex["n"], ex["n_total"] - tiles % ex["grid_c"] * ex["n"])
        return m_eff * ex["k"] * n_eff * cfg.cube_cost_per_mac
    if kind in (InstructionKind.ViewLoad, InstructionKind.ViewStore):
        w = _dtype(ex["dtype"]).nbytes
        index, elems = tiles, 1
        for d in reversed(range(len(ex["grid"]))):
            index, coord = np.divmod(index, ex["grid"][d])
            origin = coord * ex["steps"][d] + ex["offsets"][d]
            eff = np.minimum(ex["sizes"][d], ex["fulls"][d] - origin)
            if (eff < 1).any():  # raises for the first tile with an empty box
                for tile in range(len(tiles)):
                    _view_geometry(insn, tile)
            elems = elems * eff
        return elems * w * cfg.dma_cost_per_byte
    if insn.tile_size >= insn.total_size:
        eff = insn.total_size
    else:
        eff = np.minimum(insn.tile_size, insn.total_size - tiles * insn.tile_size)
    if kind not in MEMORY_KINDS:
        return eff * cfg.vector_cost_per_elem
    cost = eff * _dtype(ex["dtype"]).nbytes * cfg.dma_cost_per_byte
    if kind is InstructionKind.Store and insn.tile_size >= insn.total_size:
        return np.where(tiles > 0, 0.0, cost)  # non-advancing output: only tile 0 writes
    return cost


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
    tile, not the core, so each record's costs are computed once over all
    tiles, and cores with equal cost sequences share one simulation."""
    insns, header = program.instructions(), program.header
    steps = []
    for insn in insns:
        sync = insn.kind if insn.kind.is_sync else None
        q = Queue(insn.extras["queue"]) if sync else insn.kind.queue
        steps.append((sync, q, _BUSY_KEYS.get(q), insn.extras.get("flag")))
    tiles = np.arange(header.total_tiles)
    costs = np.empty((header.total_tiles, len(insns)))
    for j, insn in enumerate(insns):
        costs[:, j] = _cost_column(insn, tiles, cfg)
    vectors, ids = {}, []  # distinct cost vector -> id; each tile's id
    for vector in map(tuple, costs.tolist()):
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
