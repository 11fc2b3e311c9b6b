"""Compile a tiled fused group into a bytecode program.

Lowering happens in three passes: ops become proto-instructions over named
local buffers, buffer lifetimes drive a first-fit local allocator, then the
final stream is emitted with SyncSet/SyncWait pairs bracketing every
cross-queue data dependency (plus DMA-load to DMA-store forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil, prod

import numpy as np

from .device import DeviceState, ExecutionStats, dispatch
from .graph import OperatorGraph, REDUCTION_KINDS, SCALAR_KINDS
from .isa import (
    BytecodeProgram,
    DType,
    InstructionKind,
    KernelType,
    ProgramHeader,
    Queue,
    VirtualInstruction,
    encode_program,
    sync_set,
    sync_wait,
)
from .tiler import (
    DeviceConfig,
    InfeasibleTilingError,
    TiledGraph,
    aligned_shape,
    tile_cube,
    tile_vector_graph,
)


class EncoderError(ValueError):
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


def _aligned_strides(meta, g: OperatorGraph, rank: int) -> tuple[int, ...]:
    """A tensor's element strides, left-padded with zeros to ``rank``: its
    declared ones, or row-major at its resolved shape.  The one source of
    every view record's strides."""
    strides = meta.strides
    if strides is None:
        shape = g.resolved_shape(meta.id)
        strides = [1] * len(shape)
        for d in reversed(range(len(shape) - 1)):
            strides[d] = strides[d + 1] * shape[d + 1]
    return (0,) * (rank - len(strides)) + tuple(strides)


class _Lowerer:
    """Buffers and protos of one group's lowering.

    Each lowerer says where an operand's buffer is (``_operand``) and how
    big an output tile is (``_sizes``); ``_lower_elementwise`` does the rest.
    """

    def __init__(self, tg: TiledGraph):
        self.tg = tg
        self.g = tg.graph
        self.protos: list[_Proto] = []
        self.buffers: dict[str, _Buffer] = {}
        self.buffer_of: dict[str, str] = {}  # tensor id -> buffer name

    def _buffer(self, name: str, elems: int, dtype: DType) -> str:
        while name in self.buffers:  # e.g. a tensor feeding matmul and chain
            name += "#cv"
        self.buffers[name] = _Buffer(name, elems, dtype)
        return name

    def _can_alias(self, tid: str, op) -> bool:
        """May Adds/Muls write ``tid``'s buffer in place?  The cube chain
        always copies first."""
        return False

    def _view(
        self, kind, meta, buf, tile, total, grid, steps, offsets, sizes, fulls, strides
    ) -> None:
        """Append a ViewLoad of ``meta``'s tensor into ``buf``, or a ViewStore
        of ``buf`` into it: a box walk over the tile grid.  The box operands
        are tuples, one entry per dim."""
        load = kind is InstructionKind.ViewLoad
        self.protos.append(
            _Proto(
                kind,
                dst=buf if load else None,
                srcs=() if load else (buf,),
                tile_size=tile,
                total_size=total,
                extras={
                    "dtype": int(meta.dtype),
                    "dims": len(sizes),
                    "grid": grid,
                    "steps": steps,
                    "offsets": offsets,
                    "sizes": sizes,
                    "fulls": fulls,
                    "strides": strides,
                },
                global_tensor=meta.id,
            )
        )


class _VectorLowerer(_Lowerer):
    """Lower a vector group over its flattened (rows x row_size) space."""

    def __init__(self, tg: TiledGraph):
        super().__init__(tg)
        self.rank = len(tg.dom)
        self.b = tg.boundary
        self.R = tg.total_rows
        self.r = tg.rows_per_tile
        self._shapes: dict[str, tuple[int, ...]] = {}  # tensor id -> aligned shape
        self._tmp = 0

    def lower(self) -> _Lowering:
        g = self.g
        for tid in g.graph_input_ids():
            self._lower_load(tid)
        for op in g.ops:
            if op.is_elementwise:
                _lower_elementwise(self, op)
            else:
                self._lower_op(op)
        for tid in g.outputs:
            self._lower_store(tid)
        return _Lowering(self.protos, self.buffers, self.buffer_of)

    # -- helpers ---------------------------------------------------------

    def _shape(self, tid: str) -> tuple[int, ...]:
        if tid not in self._shapes:
            self._shapes[tid] = aligned_shape(self.g.resolved_shape(tid), self.rank)
        return self._shapes[tid]

    def _inrow(self, tid: str) -> tuple[int, ...]:
        """In-row shape of a tensor, and of the buffer ``buffer_of`` holds it in."""
        return self._shape(tid)[self.b :]

    def _advancing(self, shape: tuple[int, ...]) -> bool:
        return prod(shape[: self.b]) == self.R

    def _sizes(self, tid: str) -> tuple[int, int]:
        """(tile_size, total_size) of a tensor's buffer."""
        shape = self._shape(tid)
        per_row = prod(shape[self.b :])
        tile = self.r * per_row
        # a non-advancing tensor is recomputed per tile
        return tile, (self.R * per_row if self._advancing(shape) else tile)

    # -- loads/stores -----------------------------------------------------

    def _lower_load(self, tid: str) -> None:
        meta = self.g.tensors[tid]
        shape = self._shape(tid)
        tile, total = self._sizes(tid)
        buf = self._buffer(tid, tile, meta.dtype)
        self.buffer_of[tid] = buf
        advancing = self._advancing(shape)
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
        inrow = shape[self.b :]
        self._view(
            InstructionKind.ViewLoad, meta, buf, tile, total,
            (self.tg.tiles,) + (1,) * (dims - 1), (self.r,) + (0,) * (dims - 1),
            (0,) * dims, (self.r, *inrow), (self.R, *inrow),
            (row_stride, *strides[self.b :]),
        )

    def _lower_store(self, tid: str) -> None:
        meta = self.g.tensors[tid]
        if self._advancing(self._shape(tid)):
            tile, total = self._sizes(tid)
        else:
            tile = total = meta.nelems  # written once, by tile 0 only
        self.protos.append(
            _Proto(
                InstructionKind.Store,
                dst=None,
                srcs=(self.buffer_of[tid],),
                tile_size=tile,
                total_size=total,
                extras={"tile_stride": tile, "dtype": int(meta.dtype)},
                global_tensor=tid,
            )
        )

    # -- compute -----------------------------------------------------------

    def _operand(self, tid: str, out: str) -> str:
        """The buffer of ``tid``, its extent-1 in-row dims expanded to
        ``out``'s with Broadcast instructions."""
        buf, have, want = self.buffer_of[tid], self._inrow(tid), self._inrow(out)
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
            self._tmp += 1
            wide = self._buffer(f"{tid}#b{self._tmp}", self.r * prod(new), dtype)
            self.protos.append(
                _Proto(
                    InstructionKind.Broadcast,
                    dst=wide,
                    srcs=(buf,),
                    tile_size=self.r * prod(new),
                    total_size=self.R * prod(new),
                    extras={"m": m, "size": want[j], "n": n},
                )
            )
            buf, have = wide, new
        return buf

    def _lower_op(self, op) -> None:
        """A reduction or a broadcast over the last in-row dim."""
        _check_op_dtypes(self.g, op)
        src, out = op.inputs[0], op.output
        src_inrow, out_inrow = self._inrow(src), self._inrow(out)
        dst = self._buffer(out, self._sizes(out)[0], self.g.tensors[out].dtype)
        self.buffer_of[out] = dst
        if op.kind in REDUCTION_KINDS:
            size, elems = src_inrow[-1], prod(src_inrow)
        else:
            size, elems = int(op.attrs["size"]), prod(out_inrow)
        self.protos.append(
            _Proto(
                _OP_TO_KIND[op.kind],
                dst=dst,
                srcs=(self.buffer_of[src],),
                tile_size=self.r * elems,
                total_size=self.R * elems,
                extras={"m": self.r * prod(src_inrow[:-1]), "size": size, "n": 1},
            )
        )

    def _can_alias(self, tid: str, op) -> bool:
        if tid in self.g.outputs:
            return False
        if self.buffer_of[tid] != tid:
            return False  # already an alias; keep it immutable
        pos = self.g.position(op)
        return all(self.g.position(c) <= pos for c in self.g.consumers(tid))


class _CubeLowerer(_Lowerer):
    """Lower a matmul (optionally with an element-wise chain) over 2-D tiles."""

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
        a_strides = _aligned_strides(a_meta, g, 2)
        b_strides = _aligned_strides(b_meta, g, 2)
        for c in range(ceil(k / kc)):
            kc_c = min(kc, k - c * kc)
            self._view(
                InstructionKind.ViewLoad, a_meta, a_buf, tm * kc_c, m * k,
                (gr, gc), (tm, 0), (0, c * kc), (tm, kc_c), (m, k), a_strides,
            )
            self._view(
                InstructionKind.ViewLoad, b_meta, b_buf, kc_c * tn, k * n,
                (gr, gc), (0, tn), (c * kc, 0), (kc_c, tn), (k, n), b_strides,
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
                        "acc": 1 if c else 0,
                    },
                )
            )
        for op in chain:
            _lower_elementwise(self, op)
        for tid in g.outputs:
            self._lower_store(tid)
        return _Lowering(self.protos, self.buffers, self.buffer_of)

    def _sizes(self, tid: str) -> tuple[int, int]:
        tile = self.tg.tm * self.tg.tn
        return tile, tile

    def _operand(self, tid: str, out: str) -> str:
        if tid in self.buffer_of:
            return self.buffer_of[tid]
        return self._load_chain_external(tid)

    def _load_chain_external(self, tid: str) -> str:
        tg, g = self.tg, self.g
        meta = g.tensors[tid]
        m, _, n = tg.mkn
        shape = aligned_shape(g.resolved_shape(tid), 2)
        if shape not in ((m, n), (1, n)):
            raise EncoderError(
                f"cube-vector chain input {tid} has shape {shape}; expected "
                f"({m}, {n}) or (1, {n})"
            )
        frozen_rows = shape[0] == 1
        buf = self._buffer(tid, tg.tm * tg.tn, meta.dtype)
        self.buffer_of[tid] = buf
        row_stride, col_stride = _aligned_strides(meta, g, 2)
        self._view(
            InstructionKind.ViewLoad, meta, buf, tg.tm * tg.tn, m * n, tg.grid,
            (0 if frozen_rows else tg.tm, tg.tn), (0, 0), (tg.tm, tg.tn), (m, n),
            (0 if frozen_rows else row_stride, col_stride),
        )
        return buf

    def _lower_store(self, tid: str) -> None:
        tg, g = self.tg, self.g
        m, _, n = tg.mkn
        self._view(
            InstructionKind.ViewStore, g.tensors[tid], self.buffer_of[tid],
            tg.tm * tg.tn, m * n, tg.grid, (tg.tm, tg.tn), (0, 0), (tg.tm, tg.tn),
            (m, n), _aligned_strides(g.tensors[tid], g, 2),
        )


def _lower_elementwise(lw: _Lowerer, op) -> None:
    """Lower one element-wise op, ``copy`` included, for either lowerer."""
    _check_op_dtypes(lw.g, op)
    srcs = tuple(lw._operand(t, op.output) for t in op.inputs)
    if op.kind == "copy":
        # a local-to-local copy is free: alias the output onto the input
        lw.buffer_of[op.output] = srcs[0]
        return
    g = lw.g
    tile, total = lw._sizes(op.output)
    dtype = g.tensors[op.output].dtype
    extras: dict = {}
    inplace = op.kind in SCALAR_KINDS
    if inplace:
        extras["scalar"] = float(op.attrs["scalar"])
        src_tid = op.inputs[0]
        if srcs[0] == lw.buffer_of[src_tid] and lw._can_alias(src_tid, op):
            dst = srcs[0]
        else:
            dst = lw._buffer(op.output, tile, dtype)
            lw.protos.append(
                _Proto(
                    InstructionKind.Copy,
                    dst=dst,
                    srcs=srcs,
                    tile_size=tile,
                    total_size=total,
                )
            )
        srcs = ()  # Adds/Muls read and write dst
    else:
        dst = lw._buffer(op.output, tile, dtype)
        if op.kind == "cmp":
            extras["cmp"] = int(op.attrs["cmp"])
        if op.kind == "cast":
            extras["src_dtype"] = int(g.tensors[op.inputs[0]].dtype)
            extras["dst_dtype"] = int(dtype)
    lw.buffer_of[op.output] = dst
    lw.protos.append(
        _Proto(
            _OP_TO_KIND[op.kind],
            dst=dst,
            srcs=srcs,
            tile_size=tile,
            total_size=total,
            extras=extras,
            inplace=inplace,
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
    for tid in tg.graph.outputs:
        if not tg.graph.tensors[tid].is_contiguous:
            raise EncoderError(f"stored tensor {tid} must be contiguous")
    if tg.kind == "vector":
        return _VectorLowerer(tg).lower()
    return _CubeLowerer(tg).lower()


def _allocate(lowering: _Lowering) -> LocalAllocation:
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
    return LocalAllocation(slots, high)


_LOADS = (InstructionKind.Load, InstructionKind.ViewLoad)
_STORES = (InstructionKind.Store, InstructionKind.ViewStore)


def _crosses_queues(producer: InstructionKind, consumer: InstructionKind) -> bool:
    """Whether a read of ``producer``'s result by ``consumer`` needs a sync
    pair: they run on different queues, or a load feeds a store across the
    DMA read/write engines."""
    return producer.queue != consumer.queue or (
        producer in _LOADS and consumer in _STORES
    )


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
            if not _crosses_queues(src_proto.kind, p.kind):
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
    if p.kind in _STORES:
        meta = g.tensors[p.global_tensor]
        if meta.addr is None:
            raise EncoderError(f"stored tensor {p.global_tensor} is not bound")
        dst = meta.addr
        srcs = tuple(alloc.offset_of(s) for s in p.srcs)
    elif p.kind in _LOADS:
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
        if insn.kind in _LOADS:
            reads = []  # loads read global memory, not local buffers
        for off in reads:
            hit = writer.get(off)
            if hit is None:
                continue
            i, w = hit
            if not _crosses_queues(w.kind, insn.kind):
                continue
            if not bracketed(i, j, w.kind.queue, insn.kind.queue):
                raise EncoderError(
                    f"unsynchronized dependency: insn {i} ({w.kind.name}) -> "
                    f"insn {j} ({insn.kind.name}) at local 0x{off:x}"
                )
        if insn.kind not in _STORES:
            writer[insn.dst] = (j, insn)


_KERNEL_FOR = {
    "vector": KernelType.VECTOR,
    "matmul": KernelType.CUBE,
    "cube_vector": KernelType.CUBE_VECTOR,
}


def compile_group(group, tg: TiledGraph, cfg: DeviceConfig) -> BytecodeProgram:
    """Encode one tiled fused group into a dispatchable bytecode program:
    the lowering and allocation ``tile_for_group`` accepted, with its syncs."""
    insns = _emit(tg.lowering, tg.alloc, tg.graph)
    validate_sync(insns)
    header = ProgramHeader(
        _KERNEL_FOR[tg.kind],
        0,
        tg.tiles,
        min(cfg.num_cores, tg.tiles),
    )
    return encode_program(header, insns)


def tile_for_group(group, cfg: DeviceConfig) -> TiledGraph:
    """Tile and lower one group; the allocator judges whether a tile fits.

    The tiler picks a tile from its own estimate, and the group is lowered.
    If that allocation overflows local memory, the tiler's limit shrinks by
    the share that fits: the rows per tile of a vector group, or the local
    memory a cube group's tiler assumes.  The group is tiled and lowered
    again, until it fits or the tile cannot shrink.  The accepted lowering
    and allocation ride on the result; a vector group's ``t_max`` is the
    largest tile their measured bytes per row allow.
    """
    sub = group.subgraph()
    budget = cfg.local_mem_bytes
    vector = sub.is_vector_only

    def tile(limit: int | None) -> TiledGraph:
        if vector:
            return tile_vector_graph(sub, cfg, limit)
        return tile_cube(sub, replace(cfg, local_mem_bytes=limit))

    limit = None if vector else budget
    tg = tile(limit)
    while True:
        lowering = _lower(tg)
        alloc = _allocate(lowering)
        if alloc.high_water <= budget:
            break
        limit = (tg.rows_per_tile if vector else limit) * budget // alloc.high_water
        smaller = tile(limit)
        if _tile_shape(smaller) == _tile_shape(tg):
            raise InfeasibleTilingError(
                f"group {group.describe()}: its smallest legal tile of "
                f"{tg.tile_elems} elems needs {alloc.high_water} bytes of local "
                f"memory, core has {budget}"
            )
        tg = smaller
    tg.lowering, tg.alloc = lowering, alloc
    if vector:
        tg.t_max = tg.row_size * (budget * tg.rows_per_tile // alloc.high_water)
    return tg


def _tile_shape(tg: TiledGraph) -> tuple[int, ...]:
    return (tg.rows_per_tile, tg.tm, tg.tn, tg.k_chunk)


def run_groups(
    groups,
    device: DeviceState,
    cfg: DeviceConfig,
    inputs: dict[str, np.ndarray],
    debug: bool = False,
) -> tuple[dict[str, np.ndarray], list[ExecutionStats]]:
    """Tile and run a sequence of fused groups one after another.

    Returns the stored tensors of all groups and one ``ExecutionStats``
    per group.
    """
    results: dict[str, np.ndarray] = {}
    all_stats = [
        run_group(group, tile_for_group(group, cfg), device, cfg, inputs, results, debug)
        for group in groups
    ]
    return results, all_stats


def run_group(
    group,
    tg: TiledGraph,
    device: DeviceState,
    cfg: DeviceConfig,
    inputs: dict[str, np.ndarray],
    results: dict[str, np.ndarray],
    debug: bool = False,
) -> ExecutionStats:
    """Run one tiled group: bind its inputs and stores in global memory,
    compile and dispatch it, then read its stores back into ``results``
    before the next group starts."""
    bind_group(device, tg.graph, inputs)
    program = compile_group(group, tg, cfg)
    stats = dispatch(program, device, cfg=cfg, debug=debug)
    for tid in tg.graph.outputs:
        results[tid] = device.read_tensor(
            tg.graph.tensors[tid], tg.graph.resolved_shape(tid)
        )
    return stats


def bind_group(
    device: DeviceState, sub: OperatorGraph, inputs: dict | None = None
) -> None:
    """Bind a group's inputs, then its stores, at their resolved sizes.

    A strided tensor spans every element its strides reach.  An input
    bound here for the first time gets its data from ``inputs``, in its
    resolved shape, written through its strides.
    """
    inputs = inputs or {}
    for tid in sub.graph_input_ids() + sub.outputs:
        meta = sub.tensors[tid]
        data = None if device.is_bound(meta) else inputs.get(tid)
        shape = sub.resolved_shape(tid)
        if meta.strides is None:
            elems = prod(shape)
        else:
            elems = sum((d - 1) * s for d, s in zip(shape, meta.strides)) + 1
        device.bind(meta, data, nbytes=elems * meta.dtype.nbytes, strides=meta.strides)
