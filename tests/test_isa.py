import struct

import numpy as np
import pytest

from tilevm import (
    BytecodeProgram,
    CmpType,
    DType,
    InstructionKind,
    KernelType,
    ProgramHeader,
    Queue,
    VirtualInstruction,
    decode_instruction,
    disassemble,
    encode_instruction,
    encode_program,
)
from tilevm.isa import (
    EncodeError,
    MalformedOperandError,
    TruncatedRecordError,
    UnknownInstructionError,
    decompose_tile_index,
    sync_set,
    sync_wait,
)

from helpers import random_header, random_instruction


def _add_insn():
    return VirtualInstruction(
        InstructionKind.Add,
        dst=0,
        srcs=(0x1000, 0x2000),
        tile_size=832,
        total_size=32768,
    )


def test_add_record_hand_assembled():
    # 4-byte header, 3 u64 addresses, 2 u32 counts -> 36 bytes
    expected = struct.pack("<HHQQQII", 22, 36, 0, 0x1000, 0x2000, 832, 32768)
    got = encode_instruction(_add_insn())
    assert got == expected
    assert got[:4] == bytes.fromhex("16002400")
    assert len(got) == 36


def test_sync_set_record_hand_assembled():
    got = encode_instruction(sync_set(0, Queue.DMA))
    assert got == bytes.fromhex("3200080000000000")
    assert len(got) == 8


def _insn(kind, dst=0, srcs=(), tile=1, total=1, **extras):
    return VirtualInstruction(InstructionKind[kind], dst, srcs, tile, total, extras)


_VIEW_EXTRAS = {
    "dtype": int(DType.F32),
    "dims": 2,
    "grid": (4, 2),
    "steps": (2, 4),
    "offsets": (0, 1),
    "sizes": (2, 4),
    "fulls": (8, 8),
    "strides": (8, 1),
}

# Each record is built from the README's field rules, independently of the
# codec: header (u16 id, u16 length), addresses u64, counts u32, immediates
# f64, arrays u32 count + u32 items.
WIRE_CASES = {
    "Load": (
        _insn("Load", 0x40, (0x1000,), 16, 64, tile_stride=32, dtype=int(DType.F16)),
        struct.pack("<HHQQIIII", 0, 36, 0x40, 0x1000, 32, 16, 64, 0),
    ),
    "ViewLoad": (
        _insn("ViewLoad", 0x80, (0x2000,), 8, 64, **_VIEW_EXTRAS),
        struct.pack("<HHQQII", 1, 108, 0x80, 0x2000, 1, 2)
        + struct.pack(
            "<18I", 2, 4, 2, 2, 2, 4, 2, 0, 1, 2, 2, 4, 2, 8, 8, 2, 8, 1
        )
        + struct.pack("<II", 8, 64),
    ),
    "Broadcast": (
        _insn("Broadcast", 0x100, (0x20,), 48, 96, m=2, size=8, n=3),
        struct.pack("<HHQQIIIII", 11, 40, 0x100, 0x20, 2, 8, 3, 48, 96),
    ),
    "Adds": (
        _insn("Adds", 0x60, (), 16, 64, scalar=0.1),
        struct.pack("<HHQdII", 20, 28, 0x60, 0.1, 16, 64),
    ),
    "Cmp": (
        _insn("Cmp", 0x10, (0x20, 0x30), 4, 4, cmp=int(CmpType.GE)),
        struct.pack("<HHQQQIII", 28, 40, 0x10, 0x20, 0x30, 5, 4, 4),
    ),
    "Cast": (
        _insn(
            "Cast", 0x10, (0x20,), 4, 8,
            src_dtype=int(DType.F32), dst_dtype=int(DType.I32),
        ),
        struct.pack("<HHQQIIII", 29, 36, 0x10, 0x20, 1, 2, 4, 8),
    ),
    "Select": (
        _insn("Select", 0x10, (0x20, 0x30, 0x40), 4, 4),
        struct.pack("<HHQQQQII", 33, 44, 0x10, 0x20, 0x30, 0x40, 4, 4),
    ),
    "Matmul": (
        _insn(
            "Matmul", 0x10, (0x20, 0x30), 256, 1024,
            m=16, k=32, n=16, m_total=32, n_total=32,
            grid_r=2, grid_c=2, acc=1,
        ),
        struct.pack(
            "<HHQQQ10I", 40, 68, 0x10, 0x20, 0x30,
            16, 32, 16, 32, 32, 2, 2, 1, 256, 1024,
        ),
    ),
    "SyncWait": (
        sync_wait(5, Queue.CUBE),
        struct.pack("<HHI", 51, 8, (2 << 8) | 5),
    ),
}


@pytest.mark.parametrize("name", sorted(WIRE_CASES))
def test_record_wire_format(name):
    insn, expected = WIRE_CASES[name]
    assert encode_instruction(insn) == expected
    assert decode_instruction(expected) == (insn, len(expected))


def _view_without_strides():
    extras = {k: v for k, v in _VIEW_EXTRAS.items() if k != "strides"}
    return _insn("ViewLoad", 0, (0,), 8, 64, **extras)


ENCODE_ERROR_CASES = {
    "negative_dst": lambda: _insn("Abs", -1, (0,)),
    "array_item_2_32": lambda: _insn(
        "ViewLoad", 0, (0,), 8, 64, **{**_VIEW_EXTRAS, "fulls": (8, 1 << 32)}
    ),
    "view_without_strides": _view_without_strides,
    "sync_set_without_flag": lambda: _insn("SyncSet", queue=int(Queue.DMA)),
    "sync_set_flag_300": lambda: sync_set(300, Queue.DMA),
    "sync_wait_negative_flag": lambda: sync_wait(-1, Queue.CUBE),
    "sync_set_queue_7": lambda: sync_set(3, 7),
    "sync_wait_queue_256": lambda: sync_wait(0, 256),
}


@pytest.mark.parametrize("name", sorted(ENCODE_ERROR_CASES))
def test_encode_rejects_bad_operands(name):
    with pytest.raises(EncodeError):
        encode_instruction(ENCODE_ERROR_CASES[name]())


def test_roundtrip_identity_examples():
    for insn in (
        _add_insn(),
        sync_set(3, Queue.VECTOR),
        sync_wait(7, Queue.CUBE),
        VirtualInstruction(
            InstructionKind.Adds,
            dst=64,
            tile_size=16,
            total_size=64,
            extras={"scalar": -2.5},
        ),
        VirtualInstruction(
            InstructionKind.ViewLoad,
            dst=0,
            srcs=(0x4000,),
            tile_size=8,
            total_size=64,
            extras={
                "dtype": int(DType.F32),
                "dims": 2,
                "grid": (4, 2),
                "steps": (2, 4),
                "offsets": (0, 0),
                "sizes": (2, 4),
                "fulls": (8, 8),
                "strides": (8, 1),
            },
        ),
    ):
        decoded, length = decode_instruction(encode_instruction(insn))
        assert decoded == insn
        assert length == len(encode_instruction(insn))
        assert length % 4 == 0


def test_record_length_multiple_of_four():
    rng = np.random.default_rng(7)
    for _ in range(300):
        assert len(encode_instruction(random_instruction(rng))) % 4 == 0


def test_decode_unknown_instruction():
    rec = struct.pack("<HH", 999, 8) + b"\x00" * 4
    with pytest.raises(UnknownInstructionError):
        decode_instruction(rec)


def test_decode_truncated_record():
    rec = encode_instruction(_add_insn())
    with pytest.raises(TruncatedRecordError):
        decode_instruction(rec[:20])  # Insn_Len says 36 but only 20 remain


def test_decode_malformed_operands():
    # SyncSet frame claiming 12 bytes: 4 trailing operand bytes too many
    rec = struct.pack("<HHI", 50, 12, 0) + b"\x01\x00\x00\x00"
    with pytest.raises(MalformedOperandError):
        decode_instruction(rec)


@pytest.mark.parametrize(
    "word", [(1 << 16) | 5, (1 << 31) | (1 << 8), (4 << 8) | 1, 0xFF00]
)
@pytest.mark.parametrize("kind_id", [50, 51])
def test_decode_rejects_bad_sync_word(kind_id, word):
    # bits above bit 15, or a queue byte that names no Queue
    with pytest.raises(MalformedOperandError):
        decode_instruction(struct.pack("<HHI", kind_id, 8, word))


def test_decode_bad_length_field():
    with pytest.raises(MalformedOperandError):
        decode_instruction(struct.pack("<HH", 22, 6) + b"\x00\x00")


def test_encode_operand_out_of_range():
    insn = _add_insn()
    insn.dst = 1 << 64
    with pytest.raises(EncodeError):
        encode_instruction(insn)
    insn = _add_insn()
    insn.tile_size = 1 << 32
    with pytest.raises(EncodeError):
        encode_instruction(insn)


def test_encode_missing_source():
    insn = VirtualInstruction(InstructionKind.Add, dst=0, srcs=(1,), tile_size=1)
    with pytest.raises(EncodeError):
        encode_instruction(insn)


def test_load_stride_invariant():
    insn = VirtualInstruction(
        InstructionKind.Load,
        dst=0,
        srcs=(0,),
        tile_size=32,
        total_size=64,
        extras={"tile_stride": 16, "dtype": 0},
    )
    with pytest.raises(EncodeError):
        encode_instruction(insn)


def test_instruction_ids_match_table():
    expected = {
        "Load": 0, "ViewLoad": 1, "Store": 2, "ViewStore": 3, "Copy": 10,
        "Broadcast": 11, "Sqrt": 12, "Abs": 13, "Log": 14, "Exp": 15,
        "Pow": 16, "Round": 17, "Floor": 18, "IsFinite": 19, "Adds": 20,
        "Muls": 21, "Add": 22, "Sub": 23, "Mul": 24, "Div": 25, "Min": 26,
        "Max": 27, "Cmp": 28, "Cast": 29, "Sum": 30, "ReduceMax": 31,
        "ReduceMin": 32, "Select": 33, "Matmul": 40, "SyncSet": 50,
        "SyncWait": 51,
    }
    assert {k.name: int(k) for k in InstructionKind} == expected


def test_program_header_roundtrip_and_code_size():
    insns = [
        VirtualInstruction(
            InstructionKind.Load,
            dst=0,
            srcs=(0,),
            tile_size=832,
            total_size=32768,
            extras={"tile_stride": 832, "dtype": 0},
        ),
        _add_insn(),
        sync_set(0, Queue.VECTOR),
    ]
    program = encode_program(ProgramHeader(KernelType.VECTOR, 0, 40, 40), insns)
    assert program.header.code_size == sum(
        len(encode_instruction(i)) for i in insns
    )
    header, decoded = program.header, program.instructions()
    assert decoded == insns
    assert header.total_tiles == 40 and header.block_dim == 40
    again = BytecodeProgram.from_bytes(program.to_bytes())
    assert again.header == program.header and again.body == program.body


def test_single_instruction_program_code_size():
    insn = sync_set(0, Queue.DMA)
    program = encode_program(ProgramHeader(KernelType.VECTOR, 0, 1, 1), [insn])
    assert program.header.code_size == len(encode_instruction(insn)) == 8


def test_empty_program_rejected():
    with pytest.raises(EncodeError):
        encode_program(ProgramHeader(KernelType.VECTOR, 0, 1, 1), [])
    empty = BytecodeProgram(ProgramHeader(KernelType.VECTOR, 0, 1, 1), b"")
    with pytest.raises(MalformedOperandError):
        list(empty.walk())


def test_body_walk_detects_overrun():
    program = encode_program(
        ProgramHeader(KernelType.VECTOR, 0, 1, 1), [sync_set(0, Queue.DMA)]
    )
    clipped = BytecodeProgram(program.header, program.body[:-4])
    with pytest.raises(TruncatedRecordError):
        list(clipped.walk())


def test_disassemble_header_line_and_format():
    insns = [
        VirtualInstruction(
            InstructionKind.Load,
            dst=0,
            srcs=(0x100,),
            tile_size=832,
            total_size=32768,
            extras={"tile_stride": 832, "dtype": int(DType.F16)},
        ),
        _add_insn(),
    ]
    program = encode_program(ProgramHeader(KernelType.VECTOR, 0, 40, 40), insns)
    text = disassemble(program)
    lines = text.splitlines()
    assert lines[0] == "block_dim=40 body_tile=1 vmain.aiv"
    assert lines[1] == (
        "Load dst=0x0 src=[0x100] tile=832 total=32768 tile_stride=832 dtype=f16"
    )
    assert lines[2] == "Add dst=0x0 src=[0x1000,0x2000] tile=832 total=32768"


def test_disassembly_deterministic_after_roundtrip():
    rng = np.random.default_rng(21)
    insns = [random_instruction(rng) for _ in range(20)]
    program = encode_program(ProgramHeader(KernelType.CUBE, 0, 7, 3), insns)
    rt = BytecodeProgram.from_bytes(program.to_bytes())
    assert disassemble(rt) == disassemble(program)


def test_fuzzed_roundtrip_small():
    rng = np.random.default_rng(11)
    for _ in range(500):
        insn = random_instruction(rng)
        blob = encode_instruction(insn)
        decoded, length = decode_instruction(blob)
        assert decoded == insn and length == len(blob)


def test_fuzzed_program_framing_small():
    rng = np.random.default_rng(13)
    for _ in range(50):
        insns = [random_instruction(rng) for _ in range(int(rng.integers(1, 30)))]
        program = encode_program(random_header(rng), insns)
        offsets = [off for off, _ in program.walk()]
        assert offsets[0] == 0
        assert program.instructions() == insns


def test_effective_size_rule():
    insn = _add_insn()
    assert insn.effective_size(0) == 832
    assert insn.effective_size(39) == 32768 - 39 * 832 == 320
    frozen = VirtualInstruction(
        InstructionKind.Abs, dst=0, srcs=(0,), tile_size=20, total_size=20
    )
    assert frozen.effective_size(0) == frozen.effective_size(5) == 20


def test_decompose_tile_index_orders():
    # grids are visited row-major: the last dimension fastest
    grid = (2, 3)
    rm = [decompose_tile_index(i, grid) for i in range(6)]
    assert rm == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert decompose_tile_index(4, (2, 1, 3)) == (1, 0, 1)
