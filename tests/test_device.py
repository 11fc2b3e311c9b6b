import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilevm import (
    DeviceConfig,
    DeviceState,
    DType,
    InstructionKind,
    KernelType,
    ProgramHeader,
    Queue,
    VirtualInstruction,
    dispatch,
    dispatch_stacked,
    encode_program,
    exec_instruction,
    run_core,
    simulate_timing,
)
from tilevm import device as device_mod, isa
from tilevm.device import VMError, tile_range
from tilevm.isa import CmpType, decode_instruction, sync_set, sync_wait

from helpers import oracle_env, random_vector_graph, run_static


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
            "grid_r": 1, "grid_c": 1, "order": 0, "acc": 0,
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


def test_run_core_empty_range():
    device = DeviceState(8, 4096, 1 << 16)
    program = _simple_program(4, 8)
    run_core(7, program, device)  # tiles [7*1, min(4, 8)) is empty


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


def test_stacked_spatial_makespan_is_max():
    cfg = DeviceConfig(num_cores=4)
    device = DeviceState(4, 4096, 1 << 16)
    p1 = _simple_program(4, 2, tile=8)
    p2 = _simple_program(2, 2, tile=4)
    s1 = simulate_timing(p1, cfg)
    s2 = simulate_timing(p2, cfg)
    stacked = dispatch_stacked([[(p1, 0, 2), (p2, 2, 4)]], device, cfg)
    assert stacked.makespan == max(s1.makespan, s2.makespan)


def test_stacked_temporal_chains_per_core():
    cfg = DeviceConfig(num_cores=2)
    device = DeviceState(2, 4096, 1 << 16)
    p1 = _simple_program(4, 2, tile=8)
    p2 = _simple_program(2, 2, tile=4)
    s1 = simulate_timing(p1, cfg)
    s2 = simulate_timing(p2, cfg)
    chained = dispatch_stacked([[(p1, 0, 2)], [(p2, 0, 2)]], device, cfg)
    assert chained.makespan <= s1.makespan + s2.makespan
    assert chained.makespan > max(s1.makespan, s2.makespan)


def test_stacked_rejects_overlapping_cores():
    cfg = DeviceConfig(num_cores=4)
    device = DeviceState(4, 4096, 1 << 16)
    p = _simple_program(4, 2)
    with pytest.raises(VMError):
        dispatch_stacked([[(p, 0, 2), (p, 1, 3)]], device, cfg)


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


def test_write_set_checker_catches_overlap():
    from tilevm.device import _check_disjoint_writes

    device = DeviceState(2, 4096, 1 << 16)
    device.cores[0].write_ranges.append((0, 32))
    device.cores[1].write_ranges.append((32, 64))
    _check_disjoint_writes(device, 0, 2)  # disjoint: fine
    device.cores[1].write_ranges.append((16, 48))
    with pytest.raises(VMError):
        _check_disjoint_writes(device, 0, 2)


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
