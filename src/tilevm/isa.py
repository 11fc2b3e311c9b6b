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


class TileOrder(IntEnum):
    """Visit order of a multi-dimensional tile grid (swizzle)."""

    ROW_MAJOR = 0
    COL_MAJOR = 1
    BLOCK_ZIGZAG = 2


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
# V = u32-length-prefixed u32 array.  Names "dst"/"src<i>" bind to the
# instruction fields; everything else lives in extras.
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
    ("order", "U"),
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
        ("order", "U"),
        ("acc", "U"),
        ("tile_size", "U"),
        ("total_size", "U"),
    ),
    InstructionKind.SyncSet: _SYNC,
    InstructionKind.SyncWait: _SYNC,
}

_SRC_COUNT = {
    kind: sum(1 for name, _ in schema if name.startswith("src") and name[3:].isdigit())
    for kind, schema in SCHEMAS.items()
}

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_HEADER = struct.Struct("<IIII")


def _is_src(name: str) -> bool:
    return name.startswith("src") and name[3:].isdigit()


def _field_value(insn: VirtualInstruction, name: str):
    if name == "dst":
        return insn.dst
    if _is_src(name):
        idx = int(name[3:])
        if idx >= len(insn.srcs):
            raise EncodeError(f"{insn.kind.name}: missing source operand {idx}")
        return insn.srcs[idx]
    if name == "tile_size":
        return insn.tile_size
    if name == "total_size":
        return insn.total_size
    if name == "sync":
        try:
            return (int(insn.extras["queue"]) << 8) | int(insn.extras["flag"])
        except KeyError as exc:
            raise EncodeError(f"{insn.kind.name}: missing extra {exc}") from None
    try:
        return insn.extras[name]
    except KeyError:
        raise EncodeError(f"{insn.kind.name}: missing extra {name!r}") from None


def _check_u(value: int, bits: int, ctx: str) -> int:
    value = int(value)
    if not 0 <= value < (1 << bits):
        raise EncodeError(f"{ctx}: value {value} out of u{bits} range")
    return value


def encode_instruction(insn: VirtualInstruction) -> bytes:
    """Encode one instruction into its wire record."""
    insn.validate()
    schema = SCHEMAS.get(insn.kind)
    if schema is None:
        raise EncodeError(f"no schema for instruction kind {insn.kind}")
    if len(insn.srcs) != _SRC_COUNT[insn.kind]:
        raise EncodeError(
            f"{insn.kind.name}: expected {_SRC_COUNT[insn.kind]} sources, "
            f"got {len(insn.srcs)}"
        )
    parts = [b""]  # placeholder for the 4-byte record header
    for name, code in schema:
        value = _field_value(insn, name)
        ctx = f"{insn.kind.name}.{name}"
        if code == "A":
            parts.append(_U64.pack(_check_u(value, 64, ctx)))
        elif code == "U":
            parts.append(_U32.pack(_check_u(value, 32, ctx)))
        elif code == "F":
            parts.append(_F64.pack(float(value)))
        elif code == "V":
            items = tuple(value)
            parts.append(_U32.pack(_check_u(len(items), 32, ctx)))
            parts.extend(_U32.pack(_check_u(v, 32, ctx)) for v in items)
        else:  # pragma: no cover - schema table is static
            raise AssertionError(code)
    length = 4 + sum(len(p) for p in parts)
    pad = (-length) % 4
    length += pad
    if length > 0xFFFF:
        raise EncodeError(f"{insn.kind.name}: record length {length} exceeds u16")
    parts[0] = _U16.pack(int(insn.kind)) + _U16.pack(length)
    return b"".join(parts) + b"\x00" * pad


def decode_instruction(buf: bytes, offset: int = 0) -> tuple[VirtualInstruction, int]:
    """Decode the record at ``offset``; returns (instruction, record length)."""
    if offset + 4 > len(buf):
        raise TruncatedRecordError(f"record header overruns buffer at offset {offset}")
    insn_id = _U16.unpack_from(buf, offset)[0]
    length = _U16.unpack_from(buf, offset + 2)[0]
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
    if offset + length > len(buf):
        raise TruncatedRecordError(
            f"{kind.name}: Insn_Len {length} overruns buffer at offset {offset}"
        )
    end = offset + length
    pos = offset + 4

    def take(n: int) -> int:
        nonlocal pos
        if pos + n > end:
            raise MalformedOperandError(
                f"{kind.name}: operand overruns record at offset {offset}"
            )
        pos += n
        return pos - n

    dst = 0
    srcs: list[int] = []
    tile_size = 1
    total_size = 1
    extras: dict = {}
    for name, code in SCHEMAS[kind]:
        if code == "A":
            value: object = _U64.unpack_from(buf, take(8))[0]
        elif code == "U":
            value = _U32.unpack_from(buf, take(4))[0]
        elif code == "F":
            value = _F64.unpack_from(buf, take(8))[0]
        else:  # V
            count = _U32.unpack_from(buf, take(4))[0]
            if pos + 4 * count > end:
                raise MalformedOperandError(
                    f"{kind.name}: array of {count} overruns record at offset {offset}"
                )
            value = tuple(
                _U32.unpack_from(buf, take(4))[0] for _ in range(count)
            )
        if name == "dst":
            dst = value  # type: ignore[assignment]
        elif _is_src(name):
            srcs.append(value)  # type: ignore[arg-type]
        elif name == "tile_size":
            tile_size = value  # type: ignore[assignment]
        elif name == "total_size":
            total_size = value  # type: ignore[assignment]
        elif name == "sync":
            extras["flag"] = value & 0xFF  # type: ignore[operator]
            extras["queue"] = (value >> 8) & 0xFF  # type: ignore[operator]
        else:
            extras[name] = value
    if end - pos >= 4 or any(buf[i] != 0 for i in range(pos, end)):
        raise MalformedOperandError(
            f"{kind.name}: {end - pos} trailing operand bytes at offset {offset}"
        )
    if "dims" in extras:
        dims = extras["dims"]
        for key in ("grid", "steps", "offsets", "sizes", "fulls", "strides"):
            if len(extras[key]) != dims:
                raise MalformedOperandError(
                    f"{kind.name}: {key} length {len(extras[key])} != dims {dims}"
                )
    return (
        VirtualInstruction(kind, dst, tuple(srcs), tile_size, total_size, extras),
        length,
    )


class KernelType(IntEnum):
    VECTOR = 0
    CUBE = 1
    CUBE_VECTOR = 2
    STACKED = 3

    @property
    def label(self) -> str:
        return _KERNEL_LABELS[self]


_KERNEL_LABELS = {
    KernelType.VECTOR: "vmain.aiv",
    KernelType.CUBE: "cmain.aic",
    KernelType.CUBE_VECTOR: "mmain.mix",
    KernelType.STACKED: "smain.stk",
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


def decode_program(
    program: BytecodeProgram | bytes,
) -> tuple[ProgramHeader, list[VirtualInstruction]]:
    if isinstance(program, (bytes, bytearray)):
        program = BytecodeProgram.from_bytes(bytes(program))
    return program.header, program.instructions()


def decompose_tile_index(
    index: int, grid: tuple[int, ...], order: int
) -> tuple[int, ...]:
    """Map a flat tile index to per-dimension grid coordinates."""
    coords = [0] * len(grid)
    rest = index
    if order == TileOrder.COL_MAJOR:
        for d in range(len(grid)):
            coords[d] = rest % grid[d]
            rest //= grid[d]
    else:
        for d in reversed(range(len(grid))):
            coords[d] = rest % grid[d]
            rest //= grid[d]
        if order == TileOrder.BLOCK_ZIGZAG and len(grid) == 2 and coords[0] % 2 == 1:
            coords[1] = grid[1] - 1 - coords[1]
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
