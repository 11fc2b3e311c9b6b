"""Compile a tiled fused group into a bytecode program.

Lowering happens in three passes: ops become proto-instructions over named
local buffers, buffer lifetimes drive a first-fit local allocator, then the
final stream is emitted with SyncSet/SyncWait pairs bracketing every
cross-queue data dependency (plus DMA-load to DMA-store forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, prod

import numpy as np

from .device import DeviceState, ExecutionStats, dispatch
from .graph import OperatorGraph, REDUCTION_KINDS
from .isa import (
    BytecodeProgram,
    DType,
    InstructionKind,
    KernelType,
    ProgramHeader,
    Queue,
    TileOrder,
    VirtualInstruction,
    encode_program,
    sync_set,
    sync_wait,
)
from .tiler import (
    DeviceConfig,
    TiledGraph,
    tile_cube_vector,
    tile_matmul,
    tile_vector_graph,
)


class EncoderError(ValueError):
    pass


class AllocationError(EncoderError):
    pass


_OP_TO_KIND = {
    "add": InstructionKind.Add,
    "sub": InstructionKind.Sub,
    "mul": InstructionKind.Mul,
    "div": InstructionKind.Div,
    "min": InstructionKind.Min,
    "max": InstructionKind.Max,
    "pow": InstructionKind.Pow,
    "sqrt": InstructionKind.Sqrt,
    "abs": InstructionKind.Abs,
    "log": InstructionKind.Log,
    "exp": InstructionKind.Exp,
    "round": InstructionKind.Round,
    "floor": InstructionKind.Floor,
    "isfinite": InstructionKind.IsFinite,
    "adds": InstructionKind.Adds,
    "muls": InstructionKind.Muls,
    "cmp": InstructionKind.Cmp,
    "cast": InstructionKind.Cast,
    "select": InstructionKind.Select,
    "sum": InstructionKind.Sum,
    "reduce_max": InstructionKind.ReduceMax,
    "reduce_min": InstructionKind.ReduceMin,
    "broadcast": InstructionKind.Broadcast,
    "matmul": InstructionKind.Matmul,
}


@dataclass
class _Proto:
    """Instruction template whose operands are buffer names, not offsets."""

    kind: InstructionKind
    dst: str | None = None
    srcs: tuple[str, ...] = ()
    tile_size: int = 1
    total_size: int = 1
    extras: dict = field(default_factory=dict)
    global_tensor: str | None = None  # memory instructions: bound tensor id
    inplace: bool = False  # dst reads its own buffer (Adds/Muls)


@dataclass
class _Buffer:
    name: str
    elems: int
    dtype: DType

    @property
    def nbytes(self) -> int:
        return self.elems * self.dtype.nbytes


@dataclass
class _Lowering:
    protos: list[_Proto]
    buffers: dict[str, _Buffer]
    buffer_of: dict[str, str]  # tensor id -> buffer name (aliases collapse)


@dataclass
class LocalAllocation:
    """Local-memory placement for every live tile buffer of a group."""

    slots: dict[str, tuple[int, int]]  # buffer name -> (offset, nbytes)
    high_water: int

    def offset_of(self, name: str) -> int:
        return self.slots[name][0]


class _Arena:
    """Bump allocator with first-fit reuse of freed blocks."""

    def __init__(self) -> None:
        self.top = 0
        self.free: list[tuple[int, int]] = []  # (offset, size), sorted

    def alloc(self, size: int) -> int:
        for i, (off, sz) in enumerate(self.free):
            if sz >= size:
                if sz == size:
                    self.free.pop(i)
                else:
                    self.free[i] = (off + size, sz - size)
                return off
        off = self.top
        self.top += size
        return off

    def release(self, off: int, size: int) -> None:
        self.free.append((off, size))
        self.free.sort()
        merged: list[tuple[int, int]] = []
        for o, s in self.free:
            if merged and merged[-1][0] + merged[-1][1] == o:
                merged[-1] = (merged[-1][0], merged[-1][1] + s)
            else:
                merged.append((o, s))
        self.free = merged


def _aligned(shape: tuple[int, ...], rank: int) -> tuple[int, ...]:
    return (1,) * (rank - len(shape)) + tuple(shape)


def _aligned_strides(meta, g: OperatorGraph, rank: int) -> tuple[int, ...]:
    shape = g.resolved_shape(meta.id)
    strides = meta.elem_strides() if meta.strides is not None else None
    if strides is None:
        out = [1] * len(shape)
        for d in reversed(range(len(shape) - 1)):
            out[d] = out[d + 1] * shape[d + 1]
        strides = tuple(out)
    return (0,) * (rank - len(shape)) + tuple(strides)


class _VectorLowerer:
    """Lower a vector group over its flattened (rows x row_size) space."""

    def __init__(self, tg: TiledGraph):
        self.tg = tg
        self.g = tg.graph
        self.rank = len(tg.dom)
        self.b = tg.boundary
        self.R = tg.total_rows
        self.r = tg.rows_per_tile
        self.protos: list[_Proto] = []
        self.buffers: dict[str, _Buffer] = {}
        self.buffer_of: dict[str, str] = {}
        self.inrow: dict[str, tuple[int, ...]] = {}  # buffer -> materialized in-row shape
        self._tmp = 0

    def lower(self) -> _Lowering:
        g = self.g
        for tid in g.graph_input_ids():
            self._lower_load(tid)
        for op in g.ops:
            self._lower_op(op)
        for tid in g.outputs:
            self._lower_store(tid)
        return _Lowering(self.protos, self.buffers, self.buffer_of)

    # -- helpers ---------------------------------------------------------

    def _shape(self, tid: str) -> tuple[int, ...]:
        return _aligned(self.g.resolved_shape(tid), self.rank)

    def _rows_of(self, shape: tuple[int, ...]) -> int:
        return prod(shape[: self.b]) if self.b else 1

    def _new_buffer(self, name: str, inrow: tuple[int, ...], dtype: DType) -> str:
        elems = self.r * prod(inrow)
        self.buffers[name] = _Buffer(name, elems, dtype)
        self.inrow[name] = inrow
        return name

    def _fresh(self, base: str) -> str:
        self._tmp += 1
        return f"{base}#b{self._tmp}"

    def _advancing(self, shape: tuple[int, ...]) -> bool:
        return self._rows_of(shape) == self.R

    def _sizes(self, rows: bool, inrow: tuple[int, ...]) -> tuple[int, int]:
        """(tile_size, total_size) for a buffer with this in-row shape."""
        per_row = prod(inrow)
        if rows:
            return self.r * per_row, self.R * per_row
        return self.r * per_row, self.r * per_row  # non-advancing: recomputed per tile

    # -- loads/stores -----------------------------------------------------

    def _lower_load(self, tid: str) -> None:
        meta = self.g.tensors[tid]
        shape = self._shape(tid)
        inrow = shape[self.b :] if self.b < self.rank else ()
        buf = self._new_buffer(tid, inrow, meta.dtype)
        self.buffer_of[tid] = buf
        advancing = self._advancing(shape)
        per_row = prod(inrow) if inrow else 1
        tile, total = self.r * per_row, self.R * per_row
        if advancing and meta.is_contiguous:
            self.protos.append(
                _Proto(
                    InstructionKind.Load,
                    dst=buf,
                    tile_size=tile,
                    total_size=total,
                    extras={"tile_stride": tile, "dtype": int(meta.dtype)},
                    global_tensor=tid,
                )
            )
            return
        strides = _aligned_strides(meta, self.g, self.rank)
        row_stride = 0
        if advancing:
            if self.b == self.rank:
                row_stride = strides[-1] if meta.rank else 1
            else:
                row_stride = strides[self.b - 1] if self.b > 0 else 0
        dims = 1 + max(0, self.rank - self.b)
        sizes = [self.r] + [shape[d] for d in range(self.b, self.rank)]
        fulls = [self.R] + [shape[d] for d in range(self.b, self.rank)]
        box_strides = [row_stride] + [strides[d] for d in range(self.b, self.rank)]
        if self.b == self.rank:
            sizes, fulls, box_strides = [self.r], [self.R], [row_stride]
            dims = 1
        grid = [self.tg.tiles] + [1] * (dims - 1)
        steps = [self.r] + [0] * (dims - 1)
        self.protos.append(
            _Proto(
                InstructionKind.ViewLoad,
                dst=buf,
                tile_size=tile,
                total_size=total if advancing else tile,
                extras={
                    "dtype": int(meta.dtype),
                    "dims": dims,
                    "order": int(TileOrder.ROW_MAJOR),
                    "grid": tuple(grid),
                    "steps": tuple(steps),
                    "offsets": (0,) * dims,
                    "sizes": tuple(sizes),
                    "fulls": tuple(fulls),
                    "strides": tuple(box_strides),
                },
                global_tensor=tid,
            )
        )

    def _lower_store(self, tid: str) -> None:
        meta = self.g.tensors[tid]
        if not meta.is_contiguous:
            raise EncoderError(f"stored tensor {tid} must be contiguous")
        buf = self.buffer_of[tid]
        inrow = self.inrow[buf]
        shape = self._shape(tid)
        advancing = self._advancing(shape)
        per_row = prod(inrow) if inrow else 1
        if advancing:
            tile, total = self.r * per_row, self.R * per_row
        else:
            tile = total = meta.nelems  # written once, by tile 0 only
        self.protos.append(
            _Proto(
                InstructionKind.Store,
                dst=None,
                srcs=(buf,),
                tile_size=tile,
                total_size=total,
                extras={"tile_stride": tile, "dtype": int(meta.dtype)},
                global_tensor=tid,
            )
        )

    # -- compute -----------------------------------------------------------

    def _materialize(self, tid: str, want: tuple[int, ...]) -> str:
        """Expand a buffer's extent-1 in-row dims with Broadcast instructions."""
        buf = self.buffer_of[tid]
        have = self.inrow[buf]
        if have == want:
            return buf
        dtype = self.buffers[buf].dtype
        for j in range(len(want)):
            if have[j] == want[j]:
                continue
            if have[j] != 1:
                raise EncoderError(
                    f"tensor {tid}: in-row shape {have} does not broadcast to {want}"
                )
            m = self.r * prod(have[:j])
            n = prod(have[j + 1 :]) if j + 1 < len(have) else 1
            new = have[:j] + (want[j],) + have[j + 1 :]
            out = self._fresh(tid)
            self._new_buffer(out, new, dtype)
            tile, total = self.r * prod(new), self.R * prod(new)
            self.protos.append(
                _Proto(
                    InstructionKind.Broadcast,
                    dst=out,
                    srcs=(buf,),
                    tile_size=tile,
                    total_size=total,
                    extras={"m": m, "size": want[j], "n": n},
                )
            )
            buf, have = out, new
        return buf

    def _lower_op(self, op) -> None:
        g = self.g
        if op.kind == "copy":
            # a local-to-local copy is free: alias the output onto the input
            self.buffer_of[op.output] = self.buffer_of[op.inputs[0]]
            return
        out_meta = g.tensors[op.output]
        out_shape = self._shape(op.output)
        out_inrow = out_shape[self.b :] if self.b < self.rank else ()
        kind = _OP_TO_KIND[op.kind]
        if op.kind in REDUCTION_KINDS:
            src_shape = self._shape(op.inputs[0])
            src_inrow = src_shape[self.b :]
            src = self._materialize(op.inputs[0], src_inrow)
            dst = self._new_buffer(op.output, out_inrow, out_meta.dtype)
            self.buffer_of[op.output] = dst
            per_in = prod(src_inrow)
            self.protos.append(
                _Proto(
                    kind,
                    dst=dst,
                    srcs=(src,),
                    tile_size=self.r * per_in,
                    total_size=self.R * per_in,
                    extras={
                        "m": self.r * prod(src_inrow[:-1]),
                        "size": src_inrow[-1],
                        "n": 1,
                    },
                )
            )
            return
        if op.kind == "broadcast":
            size = int(op.attrs["size"])
            src_inrow = self.inrow[self.buffer_of[op.inputs[0]]]
            src = self.buffer_of[op.inputs[0]]
            dst = self._new_buffer(op.output, out_inrow, out_meta.dtype)
            self.buffer_of[op.output] = dst
            self.protos.append(
                _Proto(
                    kind,
                    dst=dst,
                    srcs=(src,),
                    tile_size=self.r * prod(out_inrow),
                    total_size=self.R * prod(out_inrow),
                    extras={"m": self.r * prod(src_inrow[:-1]), "size": size, "n": 1},
                )
            )
            return
        if op.kind in ("adds", "muls"):
            self._lower_scalar_imm(op, kind, out_meta, out_inrow)
            return
        _check_op_dtypes(g, op)
        # elementwise: unify every operand onto the op's in-row shape
        srcs = [self._materialize(t, out_inrow) for t in op.inputs]
        dst = self._new_buffer(op.output, out_inrow, out_meta.dtype)
        self.buffer_of[op.output] = dst
        tile, total = self._sizes(self._advancing(out_shape), out_inrow)
        extras: dict = {}
        if op.kind == "cmp":
            extras["cmp"] = int(op.attrs["cmp"])
        if op.kind == "cast":
            extras["src_dtype"] = int(g.tensors[op.inputs[0]].dtype)
            extras["dst_dtype"] = int(out_meta.dtype)
        self.protos.append(
            _Proto(
                kind,
                dst=dst,
                srcs=tuple(srcs),
                tile_size=tile,
                total_size=total,
                extras=extras,
            )
        )

    def _lower_scalar_imm(self, op, kind, out_meta, out_inrow) -> None:
        src_tid = op.inputs[0]
        src = self._materialize(src_tid, out_inrow)
        tile, total = self._sizes(
            self._advancing(self._shape(op.output)), out_inrow
        )
        if src == self.buffer_of[src_tid] and self._can_alias(src_tid, op):
            dst = src
        else:
            dst = self._new_buffer(op.output, out_inrow, out_meta.dtype)
            self.protos.append(
                _Proto(
                    InstructionKind.Copy,
                    dst=dst,
                    srcs=(src,),
                    tile_size=tile,
                    total_size=total,
                )
            )
        self.buffer_of[op.output] = dst
        self.inrow[dst] = out_inrow
        self.protos.append(
            _Proto(
                kind,
                dst=dst,
                tile_size=tile,
                total_size=total,
                extras={"scalar": float(op.attrs["scalar"])},
                inplace=True,
            )
        )

    def _can_alias(self, tid: str, op) -> bool:
        if tid in self.g.outputs:
            return False
        if self.buffer_of[tid] != tid:
            return False  # already an alias; keep it immutable
        later = [o for o in self.g.ops[self.g.ops.index(op) + 1 :]]
        return all(tid not in o.inputs for o in later)


class _CubeLowerer:
    """Lower a matmul (optionally with an element-wise chain) over 2-D tiles."""

    def __init__(self, tg: TiledGraph):
        self.tg = tg
        self.g = tg.graph
        self.protos: list[_Proto] = []
        self.buffers: dict[str, _Buffer] = {}
        self.buffer_of: dict[str, str] = {}

    def lower(self) -> _Lowering:
        tg, g = self.tg, self.g
        mm = next(op for op in g.ops if op.is_matmul)
        chain = [op for op in g.ops if op is not mm]
        a_id, b_id = mm.inputs
        m, k, n = tg.mkn
        tm, tn, kc = tg.tm, tg.tn, tg.k_chunk
        gr, gc = tg.grid
        a_meta, b_meta = g.tensors[a_id], g.tensors[b_id]
        out_dtype = g.tensors[mm.output].dtype
        if not (a_meta.dtype == b_meta.dtype == out_dtype):
            raise EncoderError(
                f"matmul '{mm.output}': operand/output dtypes must match"
            )
        a_buf = self._buffer(a_id, tm * kc, a_meta.dtype)
        b_buf = self._buffer(b_id, kc * tn, b_meta.dtype)
        mm_buf = self._buffer(mm.output, tm * tn, out_dtype)
        self.buffer_of[mm.output] = mm_buf
        chunks = ceil(k / kc)
        base = {
            "order": int(tg.order),
            "dims": 2,
        }
        for c in range(chunks):
            kc_c = min(kc, k - c * kc)
            self.protos.append(
                _Proto(
                    InstructionKind.ViewLoad,
                    dst=a_buf,
                    tile_size=tm * kc_c,
                    total_size=m * k,
                    extras={
                        **base,
                        "dtype": int(a_meta.dtype),
                        "grid": (gr, gc),
                        "steps": (tm, 0),
                        "offsets": (0, c * kc),
                        "sizes": (tm, kc_c),
                        "fulls": (m, k),
                        "strides": self._slab_strides(a_meta, (m, k)),
                    },
                    global_tensor=a_id,
                )
            )
            self.protos.append(
                _Proto(
                    InstructionKind.ViewLoad,
                    dst=b_buf,
                    tile_size=kc_c * tn,
                    total_size=k * n,
                    extras={
                        **base,
                        "dtype": int(b_meta.dtype),
                        "grid": (gr, gc),
                        "steps": (0, tn),
                        "offsets": (c * kc, 0),
                        "sizes": (kc_c, tn),
                        "fulls": (k, n),
                        "strides": self._slab_strides(b_meta, (k, n)),
                    },
                    global_tensor=b_id,
                )
            )
            self.protos.append(
                _Proto(
                    InstructionKind.Matmul,
                    dst=mm_buf,
                    srcs=(a_buf, b_buf),
                    tile_size=tm * tn,
                    total_size=m * n,
                    extras={
                        "m": tm,
                        "k": kc_c,
                        "n": tn,
                        "m_total": m,
                        "n_total": n,
                        "grid_r": gr,
                        "grid_c": gc,
                        "order": int(tg.order),
                        "acc": 1 if c else 0,
                    },
                )
            )
        for op in chain:
            self._lower_chain_op(op, out_dtype)
        for tid in g.outputs:
            self._lower_store(tid)
        return _Lowering(self.protos, self.buffers, self.buffer_of)

    def _buffer(self, name: str, elems: int, dtype: DType) -> str:
        buf_name = name
        while buf_name in self.buffers:  # e.g. a tensor feeding matmul and chain
            buf_name += "#cv"
        self.buffers[buf_name] = _Buffer(buf_name, elems, dtype)
        return buf_name

    def _slab_strides(self, meta, shape2d) -> tuple[int, int]:
        if meta.strides is not None and tuple(meta.strides) != (shape2d[1], 1):
            return tuple(meta.strides)  # type: ignore[return-value]
        return (shape2d[1], 1)

    def _load_chain_external(self, tid: str) -> str:
        tg, g = self.tg, self.g
        meta = g.tensors[tid]
        m, _, n = tg.mkn
        shape = _aligned(g.resolved_shape(tid), 2)
        if shape not in ((m, n), (1, n)):
            raise EncoderError(
                f"cube-vector chain input {tid} has shape {shape}; expected "
                f"({m}, {n}) or (1, {n})"
            )
        frozen_rows = shape[0] == 1
        buf = self._buffer(tid, tg.tm * tg.tn, meta.dtype)
        self.buffer_of[tid] = buf
        strides = (0, 1) if frozen_rows else (n, 1)
        self.protos.append(
            _Proto(
                InstructionKind.ViewLoad,
                dst=buf,
                tile_size=tg.tm * tg.tn,
                total_size=m * n,
                extras={
                    "dtype": int(meta.dtype),
                    "dims": 2,
                    "order": int(tg.order),
                    "grid": tg.grid,
                    "steps": (0 if frozen_rows else tg.tm, tg.tn),
                    "offsets": (0, 0),
                    "sizes": (tg.tm, tg.tn),
                    "fulls": (m, n),
                    "strides": strides,
                },
                global_tensor=tid,
            )
        )
        return buf

    def _lower_chain_op(self, op, out_dtype: DType) -> None:
        tg = self.tg
        tile = tg.tm * tg.tn
        srcs = []
        for tid in op.inputs:
            if tid in self.buffer_of:
                srcs.append(self.buffer_of[tid])
            else:
                srcs.append(self._load_chain_external(tid))
        if op.kind == "copy":
            self.buffer_of[op.output] = srcs[0]
            return
        _check_op_dtypes(self.g, op)
        kind = _OP_TO_KIND[op.kind]
        extras: dict = {}
        if op.kind == "cmp":
            extras["cmp"] = int(op.attrs["cmp"])
        if op.kind == "cast":
            extras["src_dtype"] = int(self.g.tensors[op.inputs[0]].dtype)
            extras["dst_dtype"] = int(self.g.tensors[op.output].dtype)
        dtype = self.g.tensors[op.output].dtype
        if op.kind in ("adds", "muls"):
            dst = self._buffer(op.output, tile, dtype)
            self.protos.append(
                _Proto(
                    InstructionKind.Copy,
                    dst=dst,
                    srcs=(srcs[0],),
                    tile_size=tile,
                    total_size=tile,
                )
            )
            self.protos.append(
                _Proto(
                    kind,
                    dst=dst,
                    tile_size=tile,
                    total_size=tile,
                    extras={"scalar": float(op.attrs["scalar"])},
                    inplace=True,
                )
            )
            self.buffer_of[op.output] = dst
            return
        dst = self._buffer(op.output, tile, dtype)
        self.buffer_of[op.output] = dst
        self.protos.append(
            _Proto(
                kind,
                dst=dst,
                srcs=tuple(srcs),
                tile_size=tile,
                total_size=tile,
                extras=extras,
            )
        )

    def _lower_store(self, tid: str) -> None:
        tg, g = self.tg, self.g
        meta = g.tensors[tid]
        m, _, n = tg.mkn
        self.protos.append(
            _Proto(
                InstructionKind.ViewStore,
                dst=None,
                srcs=(self.buffer_of[tid],),
                tile_size=tg.tm * tg.tn,
                total_size=m * n,
                extras={
                    "dtype": int(meta.dtype),
                    "dims": 2,
                    "order": int(tg.order),
                    "grid": tg.grid,
                    "steps": (tg.tm, tg.tn),
                    "offsets": (0, 0),
                    "sizes": (tg.tm, tg.tn),
                    "fulls": (m, n),
                    "strides": (n, 1),
                },
                global_tensor=tid,
            )
        )


def _check_op_dtypes(g: OperatorGraph, op) -> None:
    """Instructions carry no dtype, so operand/output dtypes must agree
    (cast converts; select's condition may differ from its values)."""
    if op.kind == "cast":
        return
    value_inputs = op.inputs[1:] if op.kind == "select" else op.inputs
    dtypes = {g.tensors[t].dtype for t in value_inputs}
    dtypes.add(g.tensors[op.output].dtype)
    if len(dtypes) > 1:
        raise EncoderError(
            f"{op.kind} '{op.output}': mixed dtypes {sorted(d.name for d in dtypes)}; "
            f"insert an explicit cast"
        )


def _lower(tg: TiledGraph) -> _Lowering:
    if tg.kind == "vector":
        return _VectorLowerer(tg).lower()
    return _CubeLowerer(tg).lower()


def _allocate(lowering: _Lowering, local_mem_bytes: int) -> LocalAllocation:
    protos, buffers = lowering.protos, lowering.buffers

    def touched(p: _Proto) -> set[str]:
        names = set(p.srcs)
        if p.dst is not None:
            names.add(p.dst)
        return names

    last_use: dict[str, int] = {}
    for i, p in enumerate(protos):
        for name in touched(p):
            last_use[name] = i
    arena = _Arena()
    slots: dict[str, tuple[int, int]] = {}
    high = 0
    for i, p in enumerate(protos):
        if p.dst is not None and p.dst not in slots:
            size = (buffers[p.dst].nbytes + 3) // 4 * 4  # keep offsets 4-aligned
            slots[p.dst] = (arena.alloc(size), size)
            high = max(high, arena.top)
        for name in touched(p):
            if last_use.get(name) == i and name in slots:
                off, size = slots[name]
                arena.release(off, size)
    if high > local_mem_bytes:
        raise AllocationError(
            f"local allocation needs {high} bytes, core has {local_mem_bytes}"
        )
    return LocalAllocation(slots, high)


def allocate_local(tg: TiledGraph, local_mem_bytes: int) -> LocalAllocation:
    """Place every tile buffer of the group in local memory (first-fit reuse)."""
    return _allocate(_lower(tg), local_mem_bytes)


_SYNCABLE = {
    (Queue.DMA, Queue.VECTOR),
    (Queue.VECTOR, Queue.DMA),
    (Queue.CUBE, Queue.VECTOR),
    (Queue.DMA, Queue.CUBE),
    (Queue.CUBE, Queue.DMA),
    (Queue.VECTOR, Queue.CUBE),
}


def _needs_sync(producer: _Proto, consumer: _Proto) -> bool:
    pq, cq = producer.kind.queue, consumer.kind.queue
    if pq != cq:
        return (pq, cq) in _SYNCABLE
    # loads feeding stores cross the DMA read/write engines
    return producer.kind in (
        InstructionKind.Load,
        InstructionKind.ViewLoad,
    ) and consumer.kind in (InstructionKind.Store, InstructionKind.ViewStore)


def _emit(
    lowering: _Lowering, alloc: LocalAllocation, g: OperatorGraph
) -> list[VirtualInstruction]:
    out: list[VirtualInstruction] = []
    producer: dict[str, tuple[int, _Proto]] = {}
    last_pair: dict[tuple[Queue, Queue], int] = {}  # (set_q, wait_q) -> SyncSet pos
    flag_counter = 0
    for p in lowering.protos:
        reads = list(p.srcs)
        if p.inplace and p.dst is not None:
            reads.append(p.dst)
        needed: set[tuple[Queue, Queue]] = set()
        for name in reads:
            prod_entry = producer.get(name)
            if prod_entry is None:
                continue
            idx, src_proto = prod_entry
            if not _needs_sync(src_proto, p):
                continue
            key = (src_proto.kind.queue, p.kind.queue)
            if last_pair.get(key, -1) > idx:
                continue  # an existing pair already fences this producer
            needed.add(key)
        for set_q, wait_q in sorted(needed, key=lambda k: (int(k[0]), int(k[1]))):
            flag = flag_counter % 16
            flag_counter += 1
            last_pair[(set_q, wait_q)] = len(out)
            out.append(sync_set(flag, set_q))
            out.append(sync_wait(flag, wait_q))
        insn = _materialize(p, alloc, g)
        out.append(insn)
        if p.dst is not None:
            producer[p.dst] = (len(out) - 1, p)
    return out


def _materialize(
    p: _Proto, alloc: LocalAllocation, g: OperatorGraph
) -> VirtualInstruction:
    extras = dict(p.extras)
    if p.kind in (InstructionKind.Store, InstructionKind.ViewStore):
        meta = g.tensors[p.global_tensor]
        if meta.addr is None:
            raise EncoderError(f"stored tensor {p.global_tensor} is not bound")
        dst = meta.addr
        srcs = tuple(alloc.offset_of(s) for s in p.srcs)
    elif p.kind in (InstructionKind.Load, InstructionKind.ViewLoad):
        meta = g.tensors[p.global_tensor]
        if meta.addr is None:
            raise EncoderError(f"loaded tensor {p.global_tensor} is not bound")
        dst = alloc.offset_of(p.dst)
        srcs = (meta.addr,)
    else:
        dst = alloc.offset_of(p.dst) if p.dst is not None else 0
        srcs = tuple(alloc.offset_of(s) for s in p.srcs)
    return VirtualInstruction(
        p.kind, dst, srcs, p.tile_size, p.total_size, extras
    )


def validate_sync(insns: list[VirtualInstruction]) -> None:
    """Check every cross-queue RAW dependency is bracketed by a sync pair."""
    sets: list[tuple[int, int, Queue]] = []  # (position, flag, queue)
    waits: list[tuple[int, int, Queue]] = []
    for i, insn in enumerate(insns):
        if insn.kind is InstructionKind.SyncSet:
            sets.append((i, insn.extras["flag"], Queue(insn.extras["queue"])))
        elif insn.kind is InstructionKind.SyncWait:
            waits.append((i, insn.extras["flag"], Queue(insn.extras["queue"])))
    def bracketed(i: int, j: int, pq: Queue, cq: Queue) -> bool:
        for si, sf, sq in sets:
            if sq != pq or not i < si < j:
                continue
            for wi, wf, wq in waits:
                if wf == sf and wq == cq and si < wi < j:
                    return True
        return False

    writer: dict[int, tuple[int, VirtualInstruction]] = {}
    for j, insn in enumerate(insns):
        if insn.kind.is_sync:
            continue
        reads = list(insn.srcs)
        if insn.kind in (InstructionKind.Adds, InstructionKind.Muls):
            reads.append(insn.dst)
        if insn.kind in (InstructionKind.Load, InstructionKind.ViewLoad):
            reads = []  # loads read global memory, not local buffers
        for off in reads:
            hit = writer.get(off)
            if hit is None:
                continue
            i, w = hit
            pq, cq = w.kind.queue, insn.kind.queue
            cross = pq != cq or (
                w.kind in (InstructionKind.Load, InstructionKind.ViewLoad)
                and insn.kind in (InstructionKind.Store, InstructionKind.ViewStore)
            )
            if not cross:
                continue
            if not bracketed(i, j, pq, cq):
                raise EncoderError(
                    f"unsynchronized dependency: insn {i} ({w.kind.name}) -> "
                    f"insn {j} ({insn.kind.name}) at local 0x{off:x}"
                )
        if insn.kind not in (InstructionKind.Store, InstructionKind.ViewStore):
            writer[insn.dst] = (j, insn)


_KERNEL_FOR = {
    "vector": KernelType.VECTOR,
    "matmul": KernelType.CUBE,
    "cube_vector": KernelType.CUBE_VECTOR,
}


def compile_group(group, tg: TiledGraph, cfg: DeviceConfig) -> BytecodeProgram:
    """Encode one tiled fused group into a dispatchable bytecode program."""
    lowering = _lower(tg)
    alloc = _allocate(lowering, cfg.local_mem_bytes)
    assert alloc.high_water <= cfg.local_mem_bytes
    insns = _emit(lowering, alloc, tg.graph)
    validate_sync(insns)
    header = ProgramHeader(
        _KERNEL_FOR[tg.kind],
        0,
        tg.tiles,
        min(cfg.num_cores, tg.tiles),
    )
    return encode_program(header, insns)


def tile_for_group(group, cfg: DeviceConfig) -> TiledGraph:
    sub = group.subgraph()
    if any(op.is_matmul for op in sub.ops):
        if len(sub.ops) > 1:
            return tile_cube_vector(sub, cfg)
        return tile_matmul(sub, cfg)
    return tile_vector_graph(sub, cfg)


def bind_and_run(
    group,
    device: DeviceState,
    cfg: DeviceConfig,
    inputs: dict[str, np.ndarray],
    debug: bool = False,
) -> tuple[dict[str, np.ndarray], ExecutionStats]:
    """Run one group through ``run_groups``; returns its stored tensors."""
    results, stats = run_groups([group], device, cfg, inputs, debug=debug)
    return results, stats[0]


def run_groups(
    groups,
    device: DeviceState,
    cfg: DeviceConfig,
    inputs: dict[str, np.ndarray],
    debug: bool = False,
) -> tuple[dict[str, np.ndarray], list[ExecutionStats]]:
    """Run a sequence of fused groups one after another.

    Each group is tiled, its inputs and stores are bound in global memory,
    then it is compiled, dispatched and its stores are read back before the
    next group starts.  Returns the stored tensors of all groups and one
    ``ExecutionStats`` per group.
    """
    all_stats: list[ExecutionStats] = []
    results: dict[str, np.ndarray] = {}
    for group in groups:
        tg = tile_for_group(group, cfg)
        sub = tg.graph
        for tid in sub.graph_input_ids():
            data = inputs.get(tid) if not device.is_bound(sub.tensors[tid]) else None
            _bind_resolved(device, sub, tid, data)
        for tid in sub.outputs:
            _bind_resolved(device, sub, tid)
        program = compile_group(group, tg, cfg)
        all_stats.append(dispatch(program, device, cfg=cfg, debug=debug))
        _collect(device, tg, results)
    return results, all_stats


def _bind_resolved(device: DeviceState, g: OperatorGraph, tid: str, data=None) -> None:
    meta = g.tensors[tid]
    shape = g.resolved_shape(tid)
    nbytes = prod(shape) * meta.dtype.nbytes
    device.bind(meta, data, nbytes=nbytes)


def _collect(device: DeviceState, tg: TiledGraph, results: dict) -> None:
    for tid in tg.graph.outputs:
        results[tid] = device.read_tensor(
            tg.graph.tensors[tid], tg.graph.resolved_shape(tid)
        )
