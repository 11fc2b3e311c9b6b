"""Tile-level virtual instruction set and the bytecode wire codec.

A bytecode program is a 16-byte header (kernel_type, code_size, total_tiles,
block_dim as little-endian u32) followed by a body of concatenated
instruction records.  Each record is framed as Insn_ID (u16) + Insn_Len
(u16, total record bytes) followed by kind-specific operands:

    addresses            u64 little-endian
    counts/sizes/codes   u32 little-endian
    scalar immediates    f64 bit pattern (u64)
    arrays               u32 length prefix + that many u32 values

Records are zero-padded to a multiple of 4 bytes.  The codec is pure and
stateless.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import groupby
from math import ceil
from typing import Iterator

import numpy as np


class DType(IntEnum):
    """Element type codes carried by memory and cast instructions."""

    F16 = 0
    F32 = 1
    I32 = 2
    U8 = 3

    @property
    def nbytes(self) -> int:
        return _DTYPE_BYTES[self]

    @classmethod
    def parse(cls, name: str) -> "DType":
        try:
            return _DTYPE_NAMES[name.lower()]
        except KeyError:
            raise ValueError(f"unknown dtype {name!r}") from None


_DTYPE_BYTES = {DType.F16: 2, DType.F32: 4, DType.I32: 4, DType.U8: 1}
_DTYPE_NAMES = {"f16": DType.F16, "f32": DType.F32, "i32": DType.I32, "u8": DType.U8}
NP_DTYPES = {
    DType.F16: np.float16,
    DType.F32: np.float32,
    DType.I32: np.int32,
    DType.U8: np.uint8,
}


def to_storage(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Round float64 values into ``dtype``'s storage type.

    Integers truncate toward zero; non-finite values and |v| >= 2**62 become
    0.  Callers silence numpy's floating-point warnings.
    """
    if dtype in (DType.I32, DType.U8):
        vals = np.trunc(values)
        vals = np.where(np.isfinite(vals) & (np.abs(vals) < 2.0**62), vals, 0.0)
        return vals.astype(np.int64).astype(NP_DTYPES[dtype])
    return values.astype(NP_DTYPES[dtype])


class CmpType(IntEnum):
    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5


class Queue(IntEnum):
    """Execution queue ids; also packed into sync instruction operands."""

    DMA = 0
    VECTOR = 1
    CUBE = 2
    SCALAR = 3


class InstructionKind(IntEnum):
    Load = 0
    ViewLoad = 1
    Store = 2
    ViewStore = 3
    Copy = 10
    Broadcast = 11
    Sqrt = 12
    Abs = 13
    Log = 14
    Exp = 15
    Pow = 16
    Round = 17
    Floor = 18
    IsFinite = 19
    Adds = 20
    Muls = 21
    Add = 22
    Sub = 23
    Mul = 24
    Div = 25
    Min = 26
    Max = 27
    Cmp = 28
    Cast = 29
    Sum = 30
    ReduceMax = 31
    ReduceMin = 32
    Select = 33
    Matmul = 40  # extension: cube-unit tile product
    SyncSet = 50  # extension: cross-queue synchronization
    SyncWait = 51

    @property
    def is_sync(self) -> bool:
        return self in SYNC_KINDS

    @property
    def queue(self) -> Queue:
        if self in MEMORY_KINDS:
            return Queue.DMA
        if self is InstructionKind.Matmul:
            return Queue.CUBE
        if self in SYNC_KINDS:
            return Queue.SCALAR
        return Queue.VECTOR


MEMORY_KINDS = frozenset(
    {
        InstructionKind.Load,
        InstructionKind.ViewLoad,
        InstructionKind.Store,
        InstructionKind.ViewStore,
    }
)
SYNC_KINDS = frozenset({InstructionKind.SyncSet, InstructionKind.SyncWait})


class EncodeError(ValueError):
    """Operand missing or outside its representable range."""


class DecodeError(ValueError):
    """Base class for malformed bytecode."""


class UnknownInstructionError(DecodeError):
    pass


class TruncatedRecordError(DecodeError):
    pass


class MalformedOperandError(DecodeError):
    pass


@dataclass
class VirtualInstruction:
    """One tile-level operation: the unit of decode and dispatch.

    ``dst`` is a local-memory byte offset, except for Store/ViewStore where
    it is a global byte address.  ``tile_size``/``total_size`` are element
    counts; the effective element count of tile i is total_size when
    tile_size >= total_size (non-advancing buffers and single partial tiles)
    and min(tile_size, total_size - i*tile_size) otherwise.
    """

    kind: InstructionKind
    dst: int = 0
    srcs: tuple[int, ...] = ()
    tile_size: int = 1
    total_size: int = 1
    extras: dict = field(default_factory=dict)

    def effective_size(self, tile_index: int) -> int:
        if self.tile_size >= self.total_size:
            return self.total_size
        return min(self.tile_size, self.total_size - tile_index * self.tile_size)

    def validate(self) -> None:
        if self.tile_size < 1 or self.total_size < 1:
            raise EncodeError(f"{self.kind.name}: tile_size and total_size must be >= 1")
        if self.kind in (InstructionKind.Load, InstructionKind.Store):
            if self.extras.get("tile_stride", 0) < self.tile_size:
                raise EncodeError(f"{self.kind.name}: tile_stride < tile_size")


def sync_set(flag: int, queue: Queue) -> VirtualInstruction:
    return VirtualInstruction(
        InstructionKind.SyncSet, extras={"flag": flag, "queue": int(queue)}
    )


def sync_wait(flag: int, queue: Queue) -> VirtualInstruction:
    return VirtualInstruction(
        InstructionKind.SyncWait, extras={"flag": flag, "queue": int(queue)}
    )


# Operand schemas.  Field codes: A = u64 address, U = u32, F = f64 bits,
# V = u32-length-prefixed u32 array.  Names "dst", "src<i>", "tile_size"
# and "total_size" bind to the instruction fields, "sync" packs the extras
# (queue << 8) | flag, and every other name is an extra.
_UNARY = (("dst", "A"), ("src0", "A"), ("tile_size", "U"), ("total_size", "U"))
_BINARY = (
    ("dst", "A"),
    ("src0", "A"),
    ("src1", "A"),
    ("tile_size", "U"),
    ("total_size", "U"),
)
_SCALARIMM = (("dst", "A"), ("scalar", "F"), ("tile_size", "U"), ("total_size", "U"))
_REDUCE = (
    ("dst", "A"),
    ("src0", "A"),
    ("m", "U"),
    ("size", "U"),
    ("n", "U"),
    ("tile_size", "U"),
    ("total_size", "U"),
)
_VIEW = (
    ("dst", "A"),
    ("src0", "A"),
    ("dtype", "U"),
    ("dims", "U"),
    ("grid", "V"),
    ("steps", "V"),
    ("offsets", "V"),
    ("sizes", "V"),
    ("fulls", "V"),
    ("strides", "V"),
    ("tile_size", "U"),
    ("total_size", "U"),
)
_CONTIG = (
    ("dst", "A"),
    ("src0", "A"),
    ("tile_stride", "U"),
    ("tile_size", "U"),
    ("total_size", "U"),
    ("dtype", "U"),
)
_SYNC = (("sync", "U"),)

SCHEMAS: dict[InstructionKind, tuple[tuple[str, str], ...]] = {
    InstructionKind.Load: _CONTIG,
    InstructionKind.ViewLoad: _VIEW,
    InstructionKind.Store: _CONTIG,
    InstructionKind.ViewStore: _VIEW,
    InstructionKind.Copy: _UNARY,
    InstructionKind.Broadcast: _REDUCE,
    InstructionKind.Sqrt: _UNARY,
    InstructionKind.Abs: _UNARY,
    InstructionKind.Log: _UNARY,
    InstructionKind.Exp: _UNARY,
    InstructionKind.Pow: _BINARY,
    InstructionKind.Round: _UNARY,
    InstructionKind.Floor: _UNARY,
    InstructionKind.IsFinite: _UNARY,
    InstructionKind.Adds: _SCALARIMM,
    InstructionKind.Muls: _SCALARIMM,
    InstructionKind.Add: _BINARY,
    InstructionKind.Sub: _BINARY,
    InstructionKind.Mul: _BINARY,
    InstructionKind.Div: _BINARY,
    InstructionKind.Min: _BINARY,
    InstructionKind.Max: _BINARY,
    InstructionKind.Cmp: (
        ("dst", "A"),
        ("src0", "A"),
        ("src1", "A"),
        ("cmp", "U"),
        ("tile_size", "U"),
        ("total_size", "U"),
    ),
    InstructionKind.Cast: (
        ("dst", "A"),
        ("src0", "A"),
        ("src_dtype", "U"),
        ("dst_dtype", "U"),
        ("tile_size", "U"),
        ("total_size", "U"),
    ),
    InstructionKind.Sum: _REDUCE,
    InstructionKind.ReduceMax: _REDUCE,
    InstructionKind.ReduceMin: _REDUCE,
    InstructionKind.Select: (
        ("dst", "A"),
        ("src0", "A"),
        ("src1", "A"),
        ("src2", "A"),
        ("tile_size", "U"),
        ("total_size", "U"),
    ),
    InstructionKind.Matmul: (
        ("dst", "A"),
        ("src0", "A"),
        ("src1", "A"),
        ("m", "U"),
        ("k", "U"),
        ("n", "U"),
        ("m_total", "U"),
        ("n_total", "U"),
        ("grid_r", "U"),
        ("grid_c", "U"),
        ("acc", "U"),
        ("tile_size", "U"),
        ("total_size", "U"),
    ),
    InstructionKind.SyncSet: _SYNC,
    InstructionKind.SyncWait: _SYNC,
}

_RECORD_HEADER = struct.Struct("<HH")
_HEADER = struct.Struct("<IIII")
_FIXED_FORMATS = {"A": "Q", "U": "I", "F": "d"}

_Layout = tuple[tuple[tuple[str, ...], struct.Struct | None], ...]


def _compile_layout(schema: tuple[tuple[str, str], ...]) -> _Layout:
    """One ``struct.Struct`` per run of fixed-width fields, and ``None`` for
    each array field, in schema order."""
    runs: list = []
    for is_array, group in groupby(schema, key=lambda f: f[1] == "V"):
        fields = list(group)
        if is_array:
            runs.extend(((name,), None) for name, _ in fields)
        else:
            fmt = "<" + "".join(_FIXED_FORMATS[code] for _, code in fields)
            runs.append((tuple(name for name, _ in fields), struct.Struct(fmt)))
    return tuple(runs)


_LAYOUTS = {kind: _compile_layout(schema) for kind, schema in SCHEMAS.items()}
_QUEUE_IDS = frozenset(map(int, Queue))
_SRC_NAMES = {
    kind: tuple(n for n, _ in schema if n.startswith("src") and n[3:].isdigit())
    for kind, schema in SCHEMAS.items()
}


def encode_instruction(insn: VirtualInstruction) -> bytes:
    """Encode one instruction into its wire record.

    Every field is 4 or 8 bytes wide, so records never need padding.
    """
    insn.validate()
    kind = insn.kind
    src_names = _SRC_NAMES[kind]
    if len(insn.srcs) != len(src_names):
        raise EncodeError(
            f"{kind.name}: expected {len(src_names)} sources, got {len(insn.srcs)}"
        )
    fields = {
        **insn.extras,
        "dst": insn.dst,
        "tile_size": insn.tile_size,
        "total_size": insn.total_size,
    }
    fields.update(zip(src_names, insn.srcs))
    parts = []
    names: tuple[str, ...] = ()
    try:
        if kind.is_sync:
            flag, queue = int(fields["flag"]), int(fields["queue"])
            if not 0 <= flag <= 0xFF or queue not in _QUEUE_IDS:
                raise EncodeError(f"{kind.name}: flag {flag} or queue {queue} out of range")
            fields["sync"] = (queue << 8) | flag
        for names, run in _LAYOUTS[kind]:
            if run is None:
                items = fields[names[0]]
                parts.append(struct.pack(f"<I{len(items)}I", len(items), *items))
            else:
                parts.append(run.pack(*[fields[n] for n in names]))
    except KeyError as exc:
        raise EncodeError(f"{kind.name}: missing operand {exc}") from None
    except struct.error as exc:
        raise EncodeError(f"{kind.name}.{'/'.join(names)}: {exc}") from None
    body = b"".join(parts)
    if len(body) + 4 > 0xFFFF:
        raise EncodeError(f"{kind.name}: record length {len(body) + 4} exceeds u16")
    return _RECORD_HEADER.pack(kind, len(body) + 4) + body


def decode_instruction(buf: bytes, offset: int = 0) -> tuple[VirtualInstruction, int]:
    """Decode the record at ``offset``; returns (instruction, record length)."""
    if offset + 4 > len(buf):
        raise TruncatedRecordError(f"record header overruns buffer at offset {offset}")
    insn_id, length = _RECORD_HEADER.unpack_from(buf, offset)
    try:
        kind = InstructionKind(insn_id)
    except ValueError:
        raise UnknownInstructionError(
            f"unknown Insn_ID {insn_id} at offset {offset}"
        ) from None
    if length < 4 or length % 4 != 0:
        raise MalformedOperandError(
            f"{kind.name}: bad Insn_Len {length} at offset {offset}"
        )
    end = offset + length
    if end > len(buf):
        raise TruncatedRecordError(
            f"{kind.name}: Insn_Len {length} overruns buffer at offset {offset}"
        )
    pos = offset + 4
    fields: dict = {}
    for names, run in _LAYOUTS[kind]:
        if pos + (4 if run is None else run.size) > end:
            raise MalformedOperandError(
                f"{kind.name}: operand overruns record at offset {offset}"
            )
        if run is None:
            (count,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            if pos + 4 * count > end:
                raise MalformedOperandError(
                    f"{kind.name}: array of {count} overruns record at offset {offset}"
                )
            fields[names[0]] = struct.unpack_from(f"<{count}I", buf, pos)
            pos += 4 * count
        else:
            fields.update(zip(names, run.unpack_from(buf, pos)))
            pos += run.size
    if end - pos >= 4 or any(buf[pos:end]):
        raise MalformedOperandError(
            f"{kind.name}: {end - pos} trailing operand bytes at offset {offset}"
        )
    dst = fields.pop("dst", 0)
    srcs = tuple(fields.pop(n) for n in _SRC_NAMES[kind])
    tile_size = fields.pop("tile_size", 1)
    total_size = fields.pop("total_size", 1)
    if "sync" in fields:
        word = fields.pop("sync")
        fields["flag"], fields["queue"] = word & 0xFF, word >> 8
        if fields["queue"] not in _QUEUE_IDS:  # also any bit above bit 15
            raise MalformedOperandError(
                f"{kind.name}: bad sync word 0x{word:x} at offset {offset}"
            )
    if "dims" in fields:
        dims = fields["dims"]
        for key in ("grid", "steps", "offsets", "sizes", "fulls", "strides"):
            if len(fields[key]) != dims:
                raise MalformedOperandError(
                    f"{kind.name}: {key} length {len(fields[key])} != dims {dims}"
                )
    return VirtualInstruction(kind, dst, srcs, tile_size, total_size, fields), length


class KernelType(IntEnum):
    VECTOR = 0
    CUBE = 1
    CUBE_VECTOR = 2

    @property
    def label(self) -> str:
        return _KERNEL_LABELS[self]


_KERNEL_LABELS = {
    KernelType.VECTOR: "vmain.aiv",
    KernelType.CUBE: "cmain.aic",
    KernelType.CUBE_VECTOR: "mmain.mix",
}


@dataclass
class ProgramHeader:
    kernel_type: KernelType
    code_size: int
    total_tiles: int
    block_dim: int

    def __post_init__(self) -> None:
        self.kernel_type = KernelType(self.kernel_type)
        if self.total_tiles < 1 or self.block_dim < 1:
            raise EncodeError("total_tiles and block_dim must be >= 1")

    @property
    def body_tiles(self) -> int:
        return ceil(self.total_tiles / self.block_dim)


@dataclass(frozen=True)
class BytecodeProgram:
    """A header plus its encoded body.  Immutable, so the body is decoded at
    most once and every consumer shares that one decode."""

    header: ProgramHeader
    body: bytes

    def to_bytes(self) -> bytes:
        h = self.header
        return (
            _HEADER.pack(int(h.kernel_type), h.code_size, h.total_tiles, h.block_dim)
            + self.body
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BytecodeProgram":
        if len(data) < _HEADER.size:
            raise TruncatedRecordError("program shorter than its header")
        kt, code_size, tiles, block_dim = _HEADER.unpack_from(data)
        try:
            kind = KernelType(kt)
        except ValueError:
            raise MalformedOperandError(f"unknown kernel type {kt}") from None
        body = data[_HEADER.size :]
        if len(body) != code_size:
            raise TruncatedRecordError(
                f"code_size {code_size} != body length {len(body)}"
            )
        return cls(ProgramHeader(kind, code_size, tiles, block_dim), body)

    def walk(self) -> Iterator[tuple[int, VirtualInstruction]]:
        """Yield (byte offset, instruction); framing errors carry the offset."""
        if not self.body:
            raise MalformedOperandError("program body is empty")
        offset = 0
        while offset < len(self.body):
            insn, length = decode_instruction(self.body, offset)
            yield offset, insn
            offset += length
        if offset != self.header.code_size:
            raise MalformedOperandError(
                f"body walk ended at {offset}, expected {self.header.code_size}"
            )

    @cached_property
    def _decoded(self) -> list[VirtualInstruction]:
        return [insn for _, insn in self.walk()]

    def instructions(self) -> list[VirtualInstruction]:
        """The decoded body, decoded on first call; callers share the list
        and must not mutate it."""
        return self._decoded


def encode_program(
    header: ProgramHeader, insns: list[VirtualInstruction]
) -> BytecodeProgram:
    """Serialize instructions after the header; code_size is computed here."""
    if not insns:
        raise EncodeError("program body must contain at least one instruction")
    body = b"".join(encode_instruction(i) for i in insns)
    return BytecodeProgram(
        ProgramHeader(
            header.kernel_type, len(body), header.total_tiles, header.block_dim
        ),
        body,
    )


def decompose_tile_index(index: int, grid: tuple[int, ...]) -> tuple[int, ...]:
    """Map a flat tile index to grid coordinates; grids are visited
    row-major, the last dimension fastest."""
    coords = [0] * len(grid)
    for d in reversed(range(len(grid))):
        index, coords[d] = divmod(index, grid[d])
    return tuple(coords)


def _format_extras(insn: VirtualInstruction) -> str:
    parts = []
    for name, value in insn.extras.items():
        if isinstance(value, tuple):
            parts.append(f"{name}=[{','.join(str(v) for v in value)}]")
        elif name in ("dtype", "src_dtype", "dst_dtype") and value in set(DType):
            parts.append(f"{name}={DType(value).name.lower()}")
        elif name == "cmp" and value in set(CmpType):
            parts.append(f"{name}={CmpType(value).name}")
        else:
            parts.append(f"{name}={value}")
    return " ".join(parts)


def disassemble(program: BytecodeProgram) -> str:
    """Readable program listing: header line plus one line per instruction."""
    h = program.header
    lines = [f"block_dim={h.block_dim} body_tile={h.body_tiles} {h.kernel_type.label}"]
    for _, insn in program.walk():
        src = ",".join(f"0x{s:x}" for s in insn.srcs)
        line = (
            f"{insn.kind.name} dst=0x{insn.dst:x} src=[{src}] "
            f"tile={insn.tile_size} total={insn.total_size}"
        )
        extras = _format_extras(insn)
        if extras:
            line += " " + extras
        lines.append(line)
    return "\n".join(lines) + "\n"
