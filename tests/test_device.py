import collections
import itertools
from math import ceil, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilevm import (
    DeviceConfig,
    DeviceState,
    DType,
    ExecutionStats,
    InfeasibleTilingError,
    InstructionKind,
    KernelType,
    OperatorGraph,
    ProgramHeader,
    Queue,
    RefTensor,
    VirtualInstruction,
    dispatch,
    encode_program,
    exec_instruction,
    fuse_static,
    ref_execute,
    simulate_timing,
)
from tilevm import device as device_mod, isa
from tilevm.device import VMError, tile_range
from tilevm.encoder import _OP_TO_KIND, bind_group, compile_group, tile_for_group
from tilevm.isa import (
    CmpType,
    decode_instruction,
    decompose_tile_index,
    sync_set,
    sync_wait,
)

from helpers import (
    compound_graph,
    oracle_env,
    random_vector_graph,
    reference_dispatch,
    reference_simulate_core,
    reference_simulate_timing,
    run_static,
)


def _core(device):
    return device.cores[0]


def _prep(device, offset, values, dtype=DType.F32):
    arr = np.asarray(values, dtype={DType.F32: np.float32, DType.F16: np.float16}[dtype])
    view = device.cores[0].local[offset : offset + arr.nbytes]
    view[:] = np.frombuffer(arr.tobytes(), dtype=np.uint8)
    device.cores[0].dtypes[offset] = dtype
    return arr


def _read(device, offset, count, dtype=np.float32):
    nbytes = count * np.dtype(dtype).itemsize
    return device.cores[0].local[offset : offset + nbytes].view(dtype).copy()


def test_exec_sum_semantics():
    device = DeviceState(1, 4096)
    _prep(device, 0, [1.0, 2.0, 3.0, 4.0])
    insn = VirtualInstruction(
        InstructionKind.Sum,
        dst=64,
        srcs=(0,),
        tile_size=4,
        total_size=4,
        extras={"m": 2, "size": 2, "n": 1},
    )
    exec_instruction(insn, 0, _core(device), device)
    assert _read(device, 64, 2).tolist() == [3.0, 7.0]


def test_exec_broadcast_semantics():
    device = DeviceState(1, 4096)
    _prep(device, 0, [5.0, 6.0])
    insn = VirtualInstruction(
        InstructionKind.Broadcast,
        dst=64,
        srcs=(0,),
        tile_size=6,
        total_size=6,
        extras={"m": 1, "size": 3, "n": 2},
    )
    exec_instruction(insn, 0, _core(device), device)
    assert _read(device, 64, 6).tolist() == [5.0, 6.0, 5.0, 6.0, 5.0, 6.0]


def test_exec_cmp_select_semantics():
    device = DeviceState(1, 4096)
    _prep(device, 0, [1.0, 5.0])
    _prep(device, 64, [2.0, 3.0])
    cmp = VirtualInstruction(
        InstructionKind.Cmp,
        dst=128,
        srcs=(0, 64),
        tile_size=2,
        total_size=2,
        extras={"cmp": int(CmpType.LT)},
    )
    exec_instruction(cmp, 0, _core(device), device)
    assert _read(device, 128, 2).tolist() == [1.0, 0.0]
    _prep(device, 192, [9.0, 9.0])
    _prep(device, 256, [7.0, 7.0])
    sel = VirtualInstruction(
        InstructionKind.Select,
        dst=320,
        srcs=(128, 192, 256),
        tile_size=2,
        total_size=2,
    )
    exec_instruction(sel, 0, _core(device), device)
    assert _read(device, 320, 2).tolist() == [9.0, 7.0]


def test_exec_matmul_semantics():
    device = DeviceState(1, 4096)
    _prep(device, 0, [1.0, 2.0, 3.0, 4.0])
    _prep(device, 64, [5.0, 6.0, 7.0, 8.0])
    insn = VirtualInstruction(
        InstructionKind.Matmul,
        dst=128,
        srcs=(0, 64),
        tile_size=4,
        total_size=4,
        extras={
            "m": 2, "k": 2, "n": 2, "m_total": 2, "n_total": 2,
            "grid_r": 1, "grid_c": 1, "acc": 0,
        },
    )
    exec_instruction(insn, 0, _core(device), device)
    assert _read(device, 128, 4).tolist() == [19.0, 22.0, 43.0, 50.0]


def test_exec_div_ieee_semantics():
    device = DeviceState(1, 4096)
    _prep(device, 0, [1.0, 0.0])
    _prep(device, 64, [0.0, 0.0])
    insn = VirtualInstruction(
        InstructionKind.Div, dst=128, srcs=(0, 64), tile_size=2, total_size=2
    )
    exec_instruction(insn, 0, _core(device), device)
    out = _read(device, 128, 2)
    assert np.isposinf(out[0]) and np.isnan(out[1])


def test_exec_untyped_operand_rejected():
    device = DeviceState(1, 4096)
    insn = VirtualInstruction(
        InstructionKind.Sqrt, dst=64, srcs=(0,), tile_size=2, total_size=2
    )
    with pytest.raises(VMError):
        exec_instruction(insn, 0, _core(device), device)


def test_exec_local_out_of_bounds():
    device = DeviceState(1, 64)
    _prep(device, 0, [1.0])
    insn = VirtualInstruction(
        InstructionKind.Sqrt, dst=4096, srcs=(0,), tile_size=1, total_size=1
    )
    with pytest.raises(VMError):
        exec_instruction(insn, 0, _core(device), device)


# --- view boxes -----------------------------------------------------------------


def _random_box(rng, kind):
    """A random ViewLoad/ViewStore: 1-3 dims, ragged edges.

    Global strides lay ``fulls`` out densely in a random dim order, spread
    by a factor of 1-3, so a store never writes one element twice; loads
    may also broadcast a dim with a zero stride.
    """
    dims = int(rng.integers(1, 4))
    fulls = [int(rng.integers(1, 8)) for _ in range(dims)]
    sizes = [int(rng.integers(1, f + 1)) for f in fulls]
    grid, steps, offsets = [], [], []
    for full, size in zip(fulls, sizes):
        if rng.random() < 0.7:  # advancing; the edge tile is ragged
            grid.append(-(-full // size))
            steps.append(size)
            offsets.append(0)
        else:  # one fixed box at an offset
            grid.append(1)
            steps.append(0)
            offsets.append(int(rng.integers(0, full)))
    strides = [0] * dims
    acc = int(rng.integers(1, 4))
    for d in reversed(rng.permutation(dims).tolist()):
        strides[d] = acc
        acc *= fulls[d]
    if kind is InstructionKind.ViewLoad:
        strides = [0 if rng.random() < 0.25 else s for s in strides]
    dtype = DType(int(rng.integers(len(DType))))
    w = dtype.nbytes
    glob_base = int(rng.integers(0, 8)) * w
    local_base = int(rng.integers(0, 8)) * w
    dst, src = (
        (local_base, glob_base) if kind is InstructionKind.ViewLoad
        else (glob_base, local_base)
    )
    insn = VirtualInstruction(
        kind,
        dst=dst,
        srcs=(src,),
        tile_size=prod(sizes),
        total_size=prod(fulls),
        extras={
            "dtype": int(dtype),
            "dims": dims,
            "grid": tuple(grid),
            "steps": tuple(steps),
            "offsets": tuple(offsets),
            "sizes": tuple(sizes),
            "fulls": tuple(fulls),
            "strides": tuple(strides),
        },
    )
    glob_bytes = glob_base + (sum((f - 1) * s for f, s in zip(fulls, strides)) + 1) * w
    return insn, dtype, glob_base, local_base, glob_bytes


def _box_elements(ex, tile):
    """Per-element (local index, global element index), walked row-major."""
    coords = decompose_tile_index(tile, ex["grid"])
    origins = [c * st + off for c, st, off in zip(coords, ex["steps"], ex["offsets"])]
    effs = [min(sz, f - o) for sz, f, o in zip(ex["sizes"], ex["fulls"], origins)]
    elements = []
    for idx in itertools.product(*(range(e) for e in effs)):
        loc = 0
        for i, size in zip(idx, ex["sizes"]):
            loc = loc * size + i
        glob = sum((o + i) * s for o, i, s in zip(origins, idx, ex["strides"]))
        elements.append((loc, glob))
    return elements, effs[-1]


_VIEW_KINDS = pytest.mark.parametrize(
    "kind", [InstructionKind.ViewLoad, InstructionKind.ViewStore], ids=lambda k: k.name
)


@_VIEW_KINDS
def test_view_box_copy_matches_per_element_reference(kind):
    rng = np.random.default_rng(91 + int(kind))
    for _ in range(300):
        insn, dtype, glob_base, local_base, glob_bytes = _random_box(rng, kind)
        w = dtype.nbytes
        device = DeviceState(1, 4096, glob_bytes + int(rng.integers(0, 3)) * w)
        core = device.cores[0]
        device.global_mem[:] = rng.integers(0, 256, device.global_mem.size)
        core.local[:] = rng.integers(0, 256, core.local.size)
        tile = int(rng.integers(prod(insn.extras["grid"])))
        elements, run = _box_elements(insn.extras, tile)
        want_glob, want_local = device.global_mem.copy(), core.local.copy()
        for loc, glob in elements:
            lo, go = local_base + loc * w, glob_base + glob * w
            if kind is InstructionKind.ViewLoad:
                want_local[lo : lo + w] = device.global_mem[go : go + w]
            else:
                want_glob[go : go + w] = core.local[lo : lo + w]
        stats = ExecutionStats()
        exec_instruction(insn, tile, core, device, stats)
        assert np.array_equal(core.local, want_local), insn
        assert np.array_equal(device.global_mem, want_glob), insn
        assert stats.global_bytes_moved == len(elements) * w
        if kind is InstructionKind.ViewLoad:
            assert core.write_ranges == []
            assert core.dtypes[local_base] == dtype
        else:  # one range per last-dim row, from its first to its last element
            rows = [elements[i : i + run] for i in range(0, len(elements), run)]
            assert core.write_ranges == [
                (glob_base + r[0][1] * w, glob_base + (r[-1][1] + 1) * w) for r in rows
            ]


def _box_insn(kind, addr, grid, steps, sizes, fulls, strides):
    dims = len(sizes)
    return VirtualInstruction(
        kind,
        dst=addr if kind is InstructionKind.ViewStore else 0,
        srcs=(0 if kind is InstructionKind.ViewStore else addr,),
        tile_size=prod(sizes),
        total_size=prod(fulls),
        extras={
            "dtype": int(DType.F32),
            "dims": dims,
            "grid": grid,
            "steps": steps,
            "offsets": (0,) * dims,
            "sizes": sizes,
            "fulls": fulls,
            "strides": strides,
        },
    )


@_VIEW_KINDS
def test_view_box_past_global_memory_rejected(kind):
    # the 4x4 f32 box reaches byte 64 of a 60-byte arena
    device = DeviceState(1, 4096, 60)
    insn = _box_insn(kind, 0, (1, 1), (4, 4), (4, 4), (4, 4), (4, 1))
    with pytest.raises(VMError, match="out of bounds"):
        exec_instruction(insn, 0, device.cores[0], device)


@pytest.mark.parametrize(
    "steps, sizes, fulls, overlap",
    [
        ((0, 2), (2, 2), (2, 4), False),  # column-adjacent boxes of one 2x4 tensor
        ((0, 1), (2, 2), (2, 4), True),  # boxes share a column
    ],
)
def test_debug_check_sees_overlapping_view_stores(steps, sizes, fulls, overlap):
    store = _box_insn(
        InstructionKind.ViewStore, 0, (1, 2), steps, sizes, fulls, (fulls[1], 1)
    )
    program = encode_program(ProgramHeader(KernelType.VECTOR, 0, 2, 2), [store])
    device = DeviceState(2, 4096, 1 << 12)
    if overlap:
        with pytest.raises(VMError, match="overlapping"):
            dispatch(program, device, debug=True)
    else:
        dispatch(program, device, debug=True)


def test_tile_range_examples():
    assert list(tile_range(2, 7, 3)) == [6]
    assert [list(tile_range(i, 7, 3)) for i in range(3)] == [
        [0, 1, 2], [3, 4, 5], [6],
    ]
    assert list(tile_range(1, 40, 40)) == [1]
    assert list(tile_range(9, 4, 10)) == []  # empty range past the last tile


@settings(max_examples=120, deadline=None)
@given(total=st.integers(1, 10_000), n=st.integers(1, 128))
def test_tile_range_partition_property(total, n):
    seen = []
    for core in range(n):
        seen.extend(tile_range(core, total, n))
    assert seen == list(range(total))


def _simple_program(total_tiles, block_dim, tile=8, dtype=DType.F32):
    w = dtype.nbytes
    load = VirtualInstruction(
        InstructionKind.Load,
        dst=0,
        srcs=(0,),
        tile_size=tile,
        total_size=tile * total_tiles,
        extras={"tile_stride": tile, "dtype": int(dtype)},
    )
    muls = VirtualInstruction(
        InstructionKind.Muls,
        dst=0,
        tile_size=tile,
        total_size=tile * total_tiles,
        extras={"scalar": 2.0},
    )
    store = VirtualInstruction(
        InstructionKind.Store,
        dst=tile * total_tiles * w,
        srcs=(0,),
        tile_size=tile,
        total_size=tile * total_tiles,
        extras={"tile_stride": tile, "dtype": int(dtype)},
    )
    return encode_program(
        ProgramHeader(KernelType.VECTOR, 0, total_tiles, block_dim),
        [load, sync_set(0, Queue.DMA), sync_wait(0, Queue.VECTOR), muls,
         sync_set(1, Queue.VECTOR), sync_wait(1, Queue.DMA), store],
    )


@pytest.mark.parametrize("block_dim", [1, 3, 8])
def test_dispatch_decodes_each_record_once(monkeypatch, block_dim):
    program = _simple_program(8, block_dim)
    offsets = [off for off, _ in program.walk()]
    calls = []

    def counting(buf, offset=0):
        calls.append(offset)
        return decode_instruction(buf, offset)

    # the VM may look the decoder up under either module's name
    monkeypatch.setattr(isa, "decode_instruction", counting)
    monkeypatch.setattr(device_mod, "decode_instruction", counting)
    device = DeviceState(8, 4096, 1 << 16)
    stats = dispatch(program, device, cfg=DeviceConfig(num_cores=8), debug=True)
    assert stats.tiles_executed == 8
    assert calls == offsets


def test_dispatch_distributes_tiles():
    device = DeviceState(3, 4096, 1 << 16)
    n = 7 * 8
    data = np.arange(n, dtype=np.float32)
    device.global_mem[: data.nbytes] = np.frombuffer(data.tobytes(), dtype=np.uint8)

    program = _simple_program(7, 3)
    stats = dispatch(program, device, debug=True)
    assert stats.tiles_executed == 7
    out = device.global_mem[n * 4 : 2 * n * 4].view(np.float32)
    assert np.array_equal(out, data * 2.0)
    assert stats.instruction_counts["Load"] == 7
    assert stats.global_bytes_moved == 2 * n * 4


def test_dispatch_block_dim_exceeds_cores():
    device = DeviceState(2, 4096)
    program = _simple_program(4, 3)
    with pytest.raises(VMError):
        dispatch(program, device)


def test_dispatch_leaves_cores_past_the_last_tile_idle():
    device = DeviceState(8, 4096, 1 << 16)
    program = _simple_program(4, 8)  # cores 4-7 get the empty ranges [c, min(4, c+1))
    stats = dispatch(program, device, debug=True)
    assert stats.tiles_executed == 4
    assert stats.instruction_counts == {
        "Load": 4, "SyncSet": 8, "SyncWait": 8, "Muls": 4, "Store": 4,
    }
    assert [len(core.write_ranges) for core in device.cores] == [1] * 4 + [0] * 4
    assert [core.dtypes for core in device.cores[4:]] == [{}] * 4
    assert not device.local[4:].any()


def _shifted_copy_program(tiles, block_dim):
    """Tile t loads 8 f32 from byte 64 + 32t and stores them at 32 + 32t,
    so tile t+1 stores the range tile t loads."""
    f32 = {"tile_stride": 8, "dtype": int(DType.F32)}
    load = VirtualInstruction(InstructionKind.Load, 0, (64,), 8, 8 * tiles, f32)
    store = VirtualInstruction(InstructionKind.Store, 32, (0,), 8, 8 * tiles, f32)
    return encode_program(ProgramHeader(KernelType.VECTOR, 0, tiles, block_dim), [load, store])


@pytest.mark.parametrize("block_dim", [2, 4])
def test_debug_check_sees_a_load_another_core_stores(block_dim):
    device = DeviceState(4, 4096, 1 << 12)
    with pytest.raises(VMError, match="loads global range .* that core . stores"):
        dispatch(_shifted_copy_program(4, block_dim), device, debug=True)
    dispatch(_shifted_copy_program(4, block_dim), DeviceState(4, 4096, 1 << 12))


def test_debug_check_lets_a_core_load_its_own_stores():
    device = DeviceState(1, 4096, 1 << 12)
    dispatch(_shifted_copy_program(4, 1), device, debug=True)


def _f32(kind, dst, srcs=(), tiles=3, **extras):
    return VirtualInstruction(kind, dst, srcs, 8, 8 * tiles, extras)


def _load(dst, src, dtype=DType.F32, tiles=3):
    return _f32(InstructionKind.Load, dst, (src,), tiles, tile_stride=8, dtype=int(dtype))


_BAD_PROGRAMS = {
    "untyped read": ([_f32(InstructionKind.Sqrt, 0, (512,))], "core 0: Sqrt reads untyped"),
    "mixed dtypes": (
        [_load(0, 0), _load(256, 0, DType.F16), _f32(InstructionKind.Add, 0, (0, 256))],
        r"Add: operand dtypes differ \(F32, F16\)",
    ),
    "local out of bounds": ([_load(4090, 0)], r"core 0: local access \[4090, 4122\)"),
    "global out of bounds": ([_load(0, 4032)], r"global access \[4096, 4128\) out of bounds"),
    "empty box": (
        [_box_insn(InstructionKind.ViewLoad, 0, (3,), (2,), (2,), (4,), (1,))],
        r"ViewLoad: empty tile box \(origin 4\)",
    ),
}


@pytest.mark.parametrize("case", list(_BAD_PROGRAMS))
def test_lockstep_raises_what_the_per_core_reference_raises(case):
    body, message = _BAD_PROGRAMS[case]
    program = encode_program(ProgramHeader(KernelType.VECTOR, 0, 3, 3), body)
    errors = []
    for run in (dispatch, reference_dispatch):
        with pytest.raises(VMError, match=message) as err:
            run(program, DeviceState(3, 4096, 1 << 12))
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_lanes_with_different_stale_dtypes_run_one_by_one():
    """A buffer left by earlier dispatches as f32 on one core and f16 on
    another is read in each core's own dtype; a core without it raises."""
    program = encode_program(
        ProgramHeader(KernelType.VECTOR, 0, 3, 3),
        [_f32(InstructionKind.Sqrt, 64, (0,)), _f32(InstructionKind.Abs, 128, (64,))],
    )
    devices = []
    for run in (dispatch, reference_dispatch):
        device = DeviceState(3, 4096, 1 << 12)
        device.local[:, :64] = np.arange(64, dtype=np.uint8)
        for core, dtype in zip(device.cores, (DType.F32, DType.F16, DType.F32)):
            core.dtypes[0] = dtype
        run(program, device)
        devices.append(device)
        del device.cores[2].dtypes[0]
        with pytest.raises(VMError, match="core 2: Sqrt reads untyped local buffer at 0x0"):
            run(program, device)
    assert np.array_equal(devices[0].local, devices[1].local)
    assert [c.dtypes for c in devices[0].cores] == [c.dtypes for c in devices[1].cores]
    assert devices[0].cores[1].dtypes[128] is DType.F16


# --- lockstep against the per-core reference --------------------------------------


def _is_ragged(insn, tiles):
    return insn.tile_size < insn.total_size and insn.effective_size(tiles - 1) < insn.tile_size


def _lockstep_case(seed):
    """Run one random graph's groups on two identical devices, through
    ``dispatch`` and through ``reference_dispatch``, and assert that every
    effect is identical.  Returns the cases the programs covered."""
    rng = np.random.default_rng(seed)
    cfg = DeviceConfig(
        num_cores=int(rng.choice([1, 2, 3, 5, 8, 40])),
        local_mem_bytes=int(rng.choice([4, 8, 16, 64])) * 1024,
    )
    kind = str(rng.choice(["vector", "vector", "matmul", "addmm", "layernorm"]))
    if kind == "vector":
        g, inputs = random_vector_graph(rng, max_ops=6, max_rows=96, max_cols=256)
    else:
        g, inputs = compound_graph(kind, rng)
    chunk = int(rng.choice([device_mod.LANE_CHUNK_ELEMS, 1, 96, 1024]))
    lockstep, reference = DeviceState.from_config(cfg), DeviceState.from_config(cfg)
    seen = set()
    for group in fuse_static(g):
        try:
            tg = tile_for_group(group, cfg)
        except InfeasibleTilingError:
            break
        for device in (lockstep, reference):
            bind_group(device, tg.graph, inputs)
        program = compile_group(group, tg, cfg)
        with mock.patch.object(device_mod, "LANE_CHUNK_ELEMS", chunk):
            got = dispatch(program, lockstep, debug=True)
        want = reference_dispatch(program, reference, debug=True)
        label = (seed, group.describe())
        assert np.array_equal(lockstep.global_mem, reference.global_mem), label
        assert np.array_equal(lockstep.local, reference.local), label
        assert list(got.instruction_counts.items()) == list(want.instruction_counts.items())
        assert got.global_bytes_moved == want.global_bytes_moved, label
        assert got.tiles_executed == want.tiles_executed, label
        for a, b in zip(lockstep.cores, reference.cores):
            assert a.write_ranges == b.write_ranges, (label, a.index)
            assert a.dtypes == b.dtypes, (label, a.index)
        header, insns = program.header, program.instructions()
        tiles = header.total_tiles
        kinds = [i.kind for i in insns]
        cases = {
            "ragged tail": any(_is_ragged(i, tiles) for i in insns),
            "several tiles per core": ceil(tiles / header.block_dim) > 1,
            "block_dim < num_cores": header.block_dim < cfg.num_cores,
            "non-advancing store": tiles > 1 and any(
                i.kind is InstructionKind.Store and i.tile_size >= i.total_size for i in insns
            ),
            "broadcast view": any(
                i.kind is InstructionKind.ViewLoad and 0 in i.extras["strides"] for i in insns
            ),
            "k chunks": kinds.count(InstructionKind.Matmul) > 1,
            "chunked lanes": chunk < device_mod.LANE_CHUNK_ELEMS and header.block_dim > 1,
        }
        seen |= {case for case, hit in cases.items() if hit}
    return seen


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lockstep_matches_per_core_reference(seed):
    _lockstep_case(seed)


def test_lockstep_reference_corpus_covers_each_case():
    seen = collections.Counter()
    for seed in range(40):
        seen.update(_lockstep_case(seed))
    assert len(seen) == 7, seen


def test_functional_determinism_core_order():
    rng = np.random.default_rng(33)
    cfg = DeviceConfig(num_cores=5, local_mem_bytes=16 * 1024)
    g, inputs = random_vector_graph(rng, max_ops=4, max_rows=16, max_cols=64)
    r1, _, _ = run_static(g, inputs, cfg)
    # run again on a fresh device: identical memory out
    r2, _, _ = run_static(g, inputs, cfg)
    for tid in r1:
        assert np.array_equal(r1[tid], r2[tid], equal_nan=True)


def test_vm_matches_oracle_randomized_small():
    rng = np.random.default_rng(41)
    cfg = DeviceConfig(num_cores=8, local_mem_bytes=64 * 1024)
    for _ in range(25):
        g, inputs = random_vector_graph(rng, max_ops=6, max_rows=16, max_cols=96)
        results, _, _ = run_static(g, inputs, cfg)
        env = oracle_env(g, inputs)
        for tid in g.outputs:
            got = results[tid].astype(np.float64)
            want = env[tid].data
            both_nan = np.isnan(got) & np.isnan(want)
            assert np.array_equal(got, want) or bool(
                np.all(both_nan | (got == want))
            ), tid


# --- timing model ----------------------------------------------------------------


def _synthetic_body(k, store_elems):
    add = VirtualInstruction(
        InstructionKind.Add, dst=0, srcs=(0, 0), tile_size=4, total_size=4 * k
    )
    store = VirtualInstruction(
        InstructionKind.Store,
        dst=0,
        srcs=(0,),
        tile_size=store_elems,
        total_size=store_elems * k,
        extras={"tile_stride": store_elems, "dtype": int(DType.F32)},
    )
    return encode_program(
        ProgramHeader(KernelType.VECTOR, 0, k, 1), [add, add, add, store]
    )


def _brute_force_event_sim(records, tiles, decode_cost, cost_of):
    """Reference event simulation: start = max(queue free, own decode end)."""
    scalar = 0.0
    qfree: dict[str, float] = {}
    for tile in range(tiles):
        for i, queue in enumerate(records):
            scalar += decode_cost
            start = max(qfree.get(queue, 0.0), scalar)
            qfree[queue] = start + cost_of(tile, i)
    return max(scalar, *qfree.values())


def test_pipeline_identity_4d_plus_ke():
    # decode d per record, all per-tile cost e on the last record, 4d < e
    for k in (1, 2, 5, 17):
        d, store_elems, rate = 1.0, 32, 0.25
        e = store_elems * 4 * rate
        cfg = DeviceConfig(
            num_cores=1,
            decode_cost=d,
            vector_cost_per_elem=0.0,
            dma_cost_per_byte=rate,
            sync_cost=0.0,
        )
        program = _synthetic_body(k, store_elems)
        stats = simulate_timing(program, cfg)
        assert stats.makespan == 4 * d + k * e
        assert stats.decode_hidden
        # cross-check against the independent brute-force event simulation
        costs = [0.0, 0.0, 0.0, e]
        brute = _brute_force_event_sim(
            ["vec", "vec", "vec", "dma"], k, d, lambda t, i: costs[i]
        )
        assert stats.makespan == brute


def test_zero_decode_cost_is_pure_execution():
    cfg = DeviceConfig(
        num_cores=1, decode_cost=0.0, sync_cost=0.0,
        vector_cost_per_elem=0.0, dma_cost_per_byte=0.25,
    )
    program = _synthetic_body(5, 32)
    stats = simulate_timing(program, cfg)
    assert stats.makespan == stats.makespan_exec_only == 5 * 32


def test_timing_monotone_in_parameters():
    rng = np.random.default_rng(55)
    program = _simple_program(6, 2)
    fields = ["decode_cost", "dma_cost_per_byte", "vector_cost_per_elem", "sync_cost"]
    for _ in range(40):
        base = {f: float(rng.uniform(0, 3)) for f in fields}
        cfg = DeviceConfig(num_cores=2, **base)
        m0 = simulate_timing(program, cfg).makespan
        bump = fields[int(rng.integers(len(fields)))]
        cfg2 = DeviceConfig(num_cores=2, **{**base, bump: base[bump] + 1.0})
        assert simulate_timing(program, cfg2).makespan >= m0


def test_makespan_at_least_busy_time():
    program = _simple_program(6, 2)
    cfg = DeviceConfig(num_cores=2)
    stats = simulate_timing(program, cfg)
    for busy in stats.per_core_busy:
        assert stats.makespan >= max(busy.values())


def test_decode_hidden_property_random_configs():
    rng = np.random.default_rng(77)
    program = _simple_program(8, 2, tile=64)
    insns = program.instructions()
    n_records = len(insns)
    n_sync = sum(1 for i in insns if i.kind.is_sync)
    for _ in range(50):
        dma = float(rng.uniform(0.1, 2.0))
        vec = float(rng.uniform(0.1, 2.0))
        # per-tile unit costs for the full 64-elem f32 tile
        unit_costs = [64 * 4 * dma, 64 * vec]
        budget = min(unit_costs)
        decode = float(rng.uniform(0, budget / (n_records + 1)))
        sync = float(rng.uniform(0, budget / (4 * max(1, n_sync))))
        cfg = DeviceConfig(
            num_cores=2, decode_cost=decode, dma_cost_per_byte=dma,
            vector_cost_per_elem=vec, sync_cost=sync,
        )
        stats = simulate_timing(program, cfg)
        assert stats.decode_hidden, (decode, sync, dma, vec)


def _timing_corpus():
    """(label, program) pairs from real lowering, plus one hand-built
    program whose non-advancing Store pays on tile 0 only."""
    rng = np.random.default_rng(2024)
    scratch = DeviceState(1, 16, 1 << 24)  # gives tensors addresses; runs nothing
    for _ in range(10):
        g, _ = random_vector_graph(rng, max_ops=6, max_rows=96)
        for cores, mem in ((1, 24 * 1024), (7, 16 * 1024), (40, 192 * 1024)):
            cfg = DeviceConfig(num_cores=cores, local_mem_bytes=mem)
            for group in fuse_static(g):
                try:
                    tg = tile_for_group(group, cfg)
                except InfeasibleTilingError:
                    continue
                bind_group(scratch, tg.graph)
                yield f"vector-{cores}", compile_group(group, tg, cfg)
    for i in range(6):
        m, n = (int(x) for x in rng.integers(17, 161, 2))
        k = int(rng.integers(8, 65))
        g = OperatorGraph()
        g.tensor("a", DType.F32, (m, k))
        g.tensor("b", DType.F32, (k, n))
        g.tensor("o", DType.F32, (m, n))
        g.op("matmul", ["a", "b"], "o")
        g.set_outputs(["o"])
        if i % 2:  # a cube-vector chain
            g.tensor("c", DType.F32, (m, n))
            g.tensor("r", DType.F32, (m, n))
            g.op("add", ["o", "c"], "r")
            g.set_outputs(["r"])
        cfg = DeviceConfig(num_cores=(1, 3, 7)[i % 3], local_mem_bytes=16 * 1024)
        (group,) = fuse_static(g)
        tg = tile_for_group(group, cfg)
        bind_group(scratch, tg.graph)
        edge = "ragged" if m % tg.tm or n % tg.tn else "even"
        yield f"matmul-{edge}", compile_group(group, tg, cfg)
    f32 = {"tile_stride": 16, "dtype": int(DType.F32)}
    body = [
        VirtualInstruction(InstructionKind.Load, 0, (0,), 16, 160, f32),
        sync_set(0, Queue.DMA),
        sync_wait(0, Queue.VECTOR),
        VirtualInstruction(InstructionKind.Abs, 0, (0,), 16, 160),
        sync_set(1, Queue.VECTOR),
        sync_wait(1, Queue.DMA),
        VirtualInstruction(InstructionKind.Store, 1024, (0,), 4, 4, {**f32, "tile_stride": 4}),
    ]
    header = ProgramHeader(KernelType.VECTOR, 0, 10, 4)
    yield "non-advancing-store", encode_program(header, body)


def test_timing_model_matches_reference():
    """The per-class timing model equals the two-pass-per-core reference
    exactly, and every core owns its busy dict."""
    configs = [
        DeviceConfig(),
        DeviceConfig(decode_cost=3.0, sync_cost=0.5, dma_cost_per_byte=0.25,
                     vector_cost_per_elem=2.0, cube_cost_per_mac=0.5),
    ]
    seen = collections.Counter()
    for label, program in _timing_corpus():
        header, insns = program.header, program.instructions()
        ranges = [
            tile_range(c, header.total_tiles, header.block_dim)
            for c in range(header.block_dim)
        ]
        for cfg in configs:
            got = simulate_timing(program, cfg)
            want = reference_simulate_timing(program, cfg)
            assert got.makespan == want.makespan, label
            assert got.makespan_exec_only == want.makespan_exec_only, label
            assert [list(b.items()) for b in got.per_core_busy] == [
                list(b.items()) for b in want.per_core_busy
            ], label
            assert got.decode_burst == want.decode_burst, label
            assert got.decode_hidden == want.decode_hidden, label
            assert len({id(b) for b in got.per_core_busy}) == header.block_dim
            assert [span for span, _, _ in device_mod._core_schedules(program, cfg)] == [
                reference_simulate_core(insns, r, cfg, cfg.decode_cost, cfg.sync_cost)[0]
                for r in ranges
            ], label
        seen[label] += 1
        seen["same tile count, other costs"] += any(
            len(a) == len(b) and x != y
            for a, b, x, y in zip(ranges, ranges[1:], want.per_core_busy, want.per_core_busy[1:])
        )
        seen["block_dim does not divide"] += header.total_tiles % header.block_dim != 0
    # cores with one tile count but different costs, uneven splits, each
    # core count, ragged grid edges and the Store case
    assert seen["same tile count, other costs"], seen
    assert seen["block_dim does not divide"], seen
    assert all(seen[f"vector-{c}"] for c in (1, 7, 40)), seen
    assert seen["matmul-ragged"], seen
    assert seen["non-advancing-store"] == 1


def test_write_set_checker_catches_overlap():
    from tilevm.device import _check_disjoint_writes

    device = DeviceState(2, 4096, 1 << 16)
    device.cores[0].write_ranges.append((0, 32))
    device.cores[1].write_ranges.append((32, 64))
    _check_disjoint_writes(device, 2)  # disjoint: fine
    device.cores[1].write_ranges.append((16, 48))
    with pytest.raises(VMError):
        _check_disjoint_writes(device, 2)


def test_write_set_checker_sees_overlap_behind_a_longer_range():
    # in sorted order core 0's [10,20) sits between its [0,100) and core 1's
    # [30,40), so neighbours alone never compare two cores' ranges
    from tilevm.device import _check_disjoint_writes

    device = DeviceState(2, 4096, 1 << 16)
    device.cores[0].write_ranges += [(0, 100), (10, 20)]
    device.cores[1].write_ranges.append((30, 40))
    with pytest.raises(VMError, match=r"\[0,100\) and \[30,40\)"):
        _check_disjoint_writes(device, 2)


def test_write_set_checker_matches_pairwise_check():
    from tilevm.device import _check_disjoint_writes

    rng = np.random.default_rng(23)
    verdicts = set()
    for _ in range(400):
        device = DeviceState(int(rng.integers(2, 5)), 4096, 1 << 16)
        for core in device.cores:
            for _ in range(int(rng.integers(0, 4))):
                lo = int(rng.integers(0, 300))
                core.write_ranges.append((lo, lo + int(rng.integers(1, 60))))
        ranges = [(lo, hi, c.index) for c in device.cores for lo, hi in c.write_ranges]
        clash = any(
            c1 != c2 and lo1 < hi2 and lo2 < hi1
            for lo1, hi1, c1 in ranges
            for lo2, hi2, c2 in ranges
        )
        verdicts.add(clash)
        if clash:
            with pytest.raises(VMError):
                _check_disjoint_writes(device, len(device.cores))
        else:
            assert _check_disjoint_writes(device, len(device.cores)) == sorted(ranges)
    assert verdicts == {False, True}


def test_exec_rejects_unknown_dtype_code():
    device = DeviceState(1, 4096)
    _prep(device, 0, [1.0])
    insn = VirtualInstruction(
        InstructionKind.Cast,
        dst=64,
        srcs=(0,),
        tile_size=1,
        total_size=1,
        extras={"src_dtype": 9, "dst_dtype": 0},
    )
    with pytest.raises(VMError):
        exec_instruction(insn, 0, _core(device), device)


# --- element-wise kinds against the oracle ------------------------------------------

_N = 96
_SPECIALS = np.array([0.0, -0.0, -1.5, -3.0, np.inf, -np.inf, np.nan, 6.0e4])
_INT_SPECIALS = {
    DType.I32: np.array([0, -1, -7, 2**31 - 1, -(2**31)]),
    DType.U8: np.array([0, 1, 255]),
}


def _operand(rng, dtype):
    """Random values of one dtype; float ones include 0, -0, negatives,
    +-inf, NaN and a value near the f16 limit, each at a random position."""
    if dtype is DType.U8:
        vals = rng.integers(0, 256, _N)
    elif dtype is DType.I32:
        vals = rng.integers(-1000, 1000, _N)
    else:
        vals = rng.normal(0.0, 4.0, _N)
    specials = _INT_SPECIALS.get(dtype, _SPECIALS)
    vals[rng.choice(_N, specials.size, replace=False)] = specials
    return vals.astype(isa.NP_DTYPES[dtype])


def _elementwise_cases():
    """(op kind, attrs, input dtypes, output dtype) for every element-wise kind."""
    dtypes = list(DType)
    unary = ["copy", "sqrt", "abs", "log", "exp", "round", "floor", "isfinite"]
    binary = ["add", "sub", "mul", "div", "min", "max", "pow"]
    for d in dtypes:
        for kind in unary:
            yield kind, {}, [d], d
        for kind in binary:
            yield kind, {}, [d, d], d
        yield "adds", {"scalar": -2.75}, [d], d
        yield "muls", {"scalar": 3.1e4}, [d], d
        for cmp in CmpType:
            yield "cmp", {"cmp": int(cmp)}, [d, d], d
        for src in dtypes:
            yield "cast", {}, [src], d
            yield "select", {}, [src, d, d], d  # any condition dtype


def test_elementwise_kinds_match_oracle_bit_for_bit():
    rng = np.random.default_rng(11)
    kinds = {**_OP_TO_KIND, "copy": InstructionKind.Copy}
    seen = set()
    for op_kind, attrs, in_dtypes, out_dtype in _elementwise_cases():
        for _ in range(3):
            arrays = [_operand(rng, d) for d in in_dtypes]
            g = OperatorGraph()
            names = [f"in{i}" for i in range(len(arrays))]
            for tid, d in zip(names, in_dtypes):
                g.tensor(tid, d, (_N,))
            g.tensor("out", out_dtype, (_N,))
            g.op(op_kind, names, "out", **attrs)
            env = ref_execute(
                g, {t: RefTensor.from_array(a, d) for t, a, d in zip(names, arrays, in_dtypes)}
            )
            want = env["out"].data.astype(isa.NP_DTYPES[out_dtype])

            device = DeviceState(1, 4096)
            core = _core(device)
            slots = [i * 512 for i in range(len(arrays))]
            for off, arr, d in zip(slots, arrays, in_dtypes):
                core.local[off : off + arr.nbytes] = arr.view(np.uint8)
                core.dtypes[off] = d
            kind = kinds[op_kind]
            extras = dict(attrs)
            if kind is InstructionKind.Cast:
                extras = {"src_dtype": int(in_dtypes[0]), "dst_dtype": int(out_dtype)}
            dst, srcs = 2048, tuple(slots)
            if kind in (InstructionKind.Adds, InstructionKind.Muls):
                dst, srcs = slots[0], ()  # in place
            insn = VirtualInstruction(kind, dst, srcs, _N, _N, extras)
            exec_instruction(insn, 0, core, device)
            got = core.local[dst : dst + want.nbytes].view(want.dtype)
            label = (op_kind, attrs, [d.name for d in in_dtypes], out_dtype.name)
            assert core.dtypes[dst] is out_dtype, label
            got_nan, want_nan = np.isnan(got.astype(float)), np.isnan(want.astype(float))
            assert (got_nan == want_nan).all(), label
            assert got[~got_nan].tobytes() == want[~want_nan].tobytes(), label
            seen.add(kind)
    elementwise = set(device_mod._ELEMENTWISE_FNS)
    assert seen == elementwise
    assert all(device_mod.INSTRUCTION_TABLE[k] is device_mod._exec_elementwise for k in seen)


@pytest.mark.parametrize(
    "kind, extras",
    [
        (InstructionKind.Add, {}),
        (InstructionKind.Cmp, {"cmp": int(CmpType.LT)}),
        (InstructionKind.Select, {}),
    ],
    ids=["Add", "Cmp", "Select"],
)
def test_elementwise_mixed_value_dtypes_rejected(kind, extras):
    device = DeviceState(1, 4096)
    _prep(device, 0, [1.0, 0.0], DType.F32)  # Select's condition
    _prep(device, 64, [2.0, 3.0], DType.F32)
    _prep(device, 128, [4.0, 5.0], DType.F16)
    srcs = (0, 64, 128) if kind is InstructionKind.Select else (64, 128)
    insn = VirtualInstruction(kind, 256, srcs, 2, 2, extras)
    with pytest.raises(VMError, match="operand dtypes differ"):
        exec_instruction(insn, 0, _core(device), device)
