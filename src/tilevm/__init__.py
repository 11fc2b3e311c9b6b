"""Tile-level bytecode compiler, operator fuser, and accelerator VM."""

from .isa import (
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
from .graph import (
    BasicOp,
    OperatorGraph,
    SymbolTable,
    TensorMeta,
    decompose,
    dominant_shape,
    peak_live_count,
)
from .tiler import (
    DeviceConfig,
    InfeasibleTilingError,
    TiledGraph,
    hardware_align_div,
    tile_cube,
    tile_vector_graph,
    tiling_cost,
)
from .encoder import (
    LocalAllocation,
    bind_group,
    compile_group,
    run_groups,
    tile_for_group,
    validate_sync,
)
from .device import (
    DeviceState,
    ExecutionStats,
    dispatch,
    exec_instruction,
    simulate_timing,
)
from .fuser import (
    FusedGroup,
    FusionBuffer,
    fuse_static,
)
from .oracle import RefTensor, compare, ref_execute

__version__ = "0.1.0"
