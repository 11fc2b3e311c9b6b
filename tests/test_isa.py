import numpy as np
import pytest

from tilevm import (
    BytecodeProgram,
    DType,
    InstructionKind,
    KernelType,
    ProgramHeader,
    Queue,
    VirtualInstruction,
    decode_instruction,
    decode_program,
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
    import struct

    expected = struct.pack("<HHQQQII", 22, 36, 0, 0x1000, 0x2000, 832, 32768)
    got = encode_instruction(_add_insn())
    assert got == expected
    assert got[:4] == bytes.fromhex("16002400")
    assert len(got) == 36


def test_sync_set_record_hand_assembled():
    got = encode_instruction(sync_set(0, Queue.DMA))
    assert got == bytes.fromhex("3200080000000000")
    assert len(got) == 8


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
                "order": 0,
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
    import struct

    rec = struct.pack("<HH", 999, 8) + b"\x00" * 4
    with pytest.raises(UnknownInstructionError):
        decode_instruction(rec)


def test_decode_truncated_record():
    rec = encode_instruction(_add_insn())
    with pytest.raises(TruncatedRecordError):
        decode_instruction(rec[:20])  # Insn_Len says 36 but only 20 remain


def test_decode_malformed_operands():
    import struct

    # SyncSet frame claiming 12 bytes: 4 trailing operand bytes too many
    rec = struct.pack("<HHI", 50, 12, 0) + b"\x01\x00\x00\x00"
    with pytest.raises(MalformedOperandError):
        decode_instruction(rec)


def test_decode_bad_length_field():
    import struct

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
    header, decoded = decode_program(program)
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
    grid = (2, 3)
    rm = [decompose_tile_index(i, grid, 0) for i in range(6)]
    assert rm == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    cm = [decompose_tile_index(i, grid, 1) for i in range(6)]
    assert cm == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    zz = [decompose_tile_index(i, grid, 2) for i in range(6)]
    assert zz == [(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]
