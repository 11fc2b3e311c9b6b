import time

import numpy as np
import pytest

from tilevm import (
    DeviceConfig,
    DeviceState,
    DType,
    InstructionKind,
    KernelType,
    OperatorGraph,
    allocate_local,
    compile_group,
    fuse_static,
    tile_for_group,
    validate_sync,
)
from tilevm.encoder import AllocationError, EncoderError, bind_and_run, run_groups
from tilevm.graph import decompose
from tilevm.oracle import compare
from tilevm.isa import Queue, sync_set, sync_wait, VirtualInstruction

from helpers import direct_layernorm, oracle_env

CFG = DeviceConfig()


def _vector_group(specs, ops, outputs):
    g = OperatorGraph()
    for tid, dtype, shape in specs:
        g.tensor(tid, dtype, shape)
    for kind, ins, out, attrs in ops:
        g.op(kind, ins, out, **attrs)
    g.set_outputs(outputs)
    groups = fuse_static(g)
    assert len(groups) == 1
    return groups[0]


def _f16_add_group():
    return _vector_group(
        [("a", "f16", (32, 1024)), ("b", "f16", (32, 1024)), ("c", "f16", (32, 1024))],
        [("add", ["a", "b"], "c", {})],
        ["c"],
    )


def test_allocate_local_add_offsets():
    group = _f16_add_group()
    tg = tile_for_group(group, CFG)
    alloc = allocate_local(tg, CFG.local_mem_bytes)
    assert alloc.slots["a"] == (0, 1664)
    assert alloc.slots["b"] == (1664, 1664)
    assert alloc.slots["c"] == (3328, 1664)
    assert alloc.high_water == 4992


def test_allocate_local_chain_reuses_dead_block():
    group = _vector_group(
        [
            ("a", "f16", (32, 1024)), ("b", "f16", (32, 1024)),
            ("c", "f16", (32, 1024)), ("d", "f16", (32, 1024)),
        ],
        [("add", ["a", "b"], "c", {}), ("sqrt", ["c"], "d", {})],
        ["d"],
    )
    tg = tile_for_group(group, CFG)
    alloc = allocate_local(tg, CFG.local_mem_bytes)
    assert alloc.slots["d"][0] == alloc.slots["a"][0] == 0  # d reuses a's block
    assert alloc.high_water == 4992


def test_allocate_local_copy_pair():
    group = _vector_group(
        [("a", "f32", (16,)), ("b", "f32", (16,))],
        [("copy", ["a"], "b", {})],
        ["b"],
    )
    cfg = DeviceConfig(num_cores=1)
    tg = tile_for_group(group, cfg)
    alloc = allocate_local(tg, cfg.local_mem_bytes)
    # copy aliases its input buffer: a single 64-byte block
    assert alloc.slots["a"] == (0, 64)
    assert alloc.high_water == 64


def test_allocation_failure_is_detected():
    group = _f16_add_group()
    tg = tile_for_group(group, CFG)
    with pytest.raises(AllocationError):
        allocate_local(tg, 128)


def _bind_all(group, cfg, device=None):
    device = device or DeviceState.from_config(cfg)
    tg = tile_for_group(group, cfg)
    sub = tg.graph
    for tid in sub.graph_input_ids():
        device.bind(sub.tensors[tid])
    for tid in sub.outputs:
        device.bind(sub.tensors[tid])
    return tg, device


def test_compile_add_program_structure_and_header():
    group = _f16_add_group()
    tg, _ = _bind_all(group, CFG)
    program = compile_group(group, tg, CFG)
    kinds = [i.kind.name for i in program.instructions()]
    assert kinds == [
        "Load", "Load", "SyncSet", "SyncWait", "Add", "SyncSet", "SyncWait", "Store",
    ]
    h = program.header
    assert h.kernel_type == KernelType.VECTOR
    assert h.total_tiles == 40 and h.block_dim == 40
    syncs = [i for i in program.instructions() if i.kind.is_sync]
    assert [Queue(s.extras["queue"]) for s in syncs] == [
        Queue.DMA, Queue.VECTOR, Queue.VECTOR, Queue.DMA,
    ]


def test_compile_fused_add_sqrt_single_load_pair():
    group = _vector_group(
        [
            ("a", "f32", (8, 16)), ("b", "f32", (8, 16)),
            ("c", "f32", (8, 16)), ("d", "f32", (8, 16)),
        ],
        [("add", ["a", "b"], "c", {}), ("sqrt", ["c"], "d", {})],
        ["d"],
    )
    tg, _ = _bind_all(group, CFG)
    program = compile_group(group, tg, CFG)
    kinds = [i.kind.name for i in program.instructions() if not i.kind.is_sync]
    assert kinds == ["Load", "Load", "Add", "Sqrt", "Store"]
    counts = {}
    for k in kinds:
        counts[k] = counts.get(k, 0) + 1
    assert counts["Load"] == 2 and counts["Store"] == 1


def test_compile_copy_only_group():
    group = _vector_group(
        [("a", "f32", (64,)), ("b", "f32", (64,))],
        [("copy", ["a"], "b", {})],
        ["b"],
    )
    cfg = DeviceConfig(num_cores=2)
    tg, _ = _bind_all(group, cfg)
    program = compile_group(group, tg, cfg)
    kinds = [i.kind.name for i in program.instructions()]
    assert kinds == ["Load", "SyncSet", "SyncWait", "Store"]


def test_load_store_counts_match_group_interface():
    group = _vector_group(
        [
            ("a", "f32", (4, 8)), ("b", "f32", (4, 8)), ("c", "f32", (4, 8)),
            ("x", "f32", (4, 8)), ("y", "f32", (4, 8)),
        ],
        [("add", ["a", "b"], "x", {}), ("add", ["a", "c"], "y", {})],
        ["x", "y"],
    )
    tg, _ = _bind_all(group, CFG)
    program = compile_group(group, tg, CFG)
    insns = program.instructions()
    loads = sum(1 for i in insns if i.kind in (InstructionKind.Load, InstructionKind.ViewLoad))
    stores = sum(1 for i in insns if i.kind in (InstructionKind.Store, InstructionKind.ViewStore))
    assert loads == len(group.loads) == 3  # a loaded once
    assert stores == len(group.stores) == 2


def test_compute_operands_inside_allocated_blocks():
    group = _vector_group(
        [
            ("a", "f16", (16, 64)), ("b", "f16", (16, 64)),
            ("c", "f16", (16, 64)), ("d", "f16", (16, 64)),
        ],
        [("mul", ["a", "b"], "c", {}), ("abs", ["c"], "d", {})],
        ["d"],
    )
    tg, _ = _bind_all(group, CFG)
    alloc = allocate_local(tg, CFG.local_mem_bytes)
    program = compile_group(group, tg, CFG)
    spans = sorted(alloc.slots.values())
    def inside(off, nbytes):
        return any(o <= off and off + nbytes <= o + s for o, s in spans)
    for insn in program.instructions():
        if insn.kind.is_sync or insn.kind.is_memory:
            continue
        w = 2
        assert inside(insn.dst, insn.tile_size * w)
        for src in insn.srcs:
            assert inside(src, insn.tile_size * w)


def test_validate_sync_catches_missing_pair():
    load = VirtualInstruction(
        InstructionKind.Load, dst=0, srcs=(0,), tile_size=8, total_size=8,
        extras={"tile_stride": 8, "dtype": int(DType.F32)},
    )
    add = VirtualInstruction(
        InstructionKind.Add, dst=64, srcs=(0, 0), tile_size=8, total_size=8
    )
    with pytest.raises(EncoderError):
        validate_sync([load, add])
    validate_sync([load, sync_set(0, Queue.DMA), sync_wait(0, Queue.VECTOR), add])
    # wait on the wrong queue does not bracket the dependency
    with pytest.raises(EncoderError):
        validate_sync([load, sync_set(0, Queue.DMA), sync_wait(0, Queue.CUBE), add])


def test_compile_rejects_unbound_tensor():
    group = _f16_add_group()
    tg = tile_for_group(group, CFG)
    with pytest.raises(EncoderError):
        compile_group(group, tg, CFG)


def test_bind_and_run_add():
    group = _vector_group(
        [("a", "f32", (4,)), ("b", "f32", (4,)), ("c", "f32", (4,))],
        [("add", ["a", "b"], "c", {})],
        ["c"],
    )
    device = DeviceState.from_config(CFG)
    out, _ = bind_and_run(
        group, device, CFG,
        {"a": np.array([1.0, 2, 3, 4], np.float32),
         "b": np.array([5.0, 6, 7, 8], np.float32)},
        debug=True,
    )
    assert out["c"].tolist() == [6.0, 8.0, 10.0, 12.0]


def test_bind_and_run_addmm_matches_oracle():
    rng = np.random.default_rng(2)
    g = OperatorGraph()
    ins = [
        g.tensor("a", "f32", (24, 40)),
        g.tensor("b", "f32", (40, 24)),
        g.tensor("c", "f32", (24, 24)),
    ]
    metas, ops = decompose("addmm", ins, "out")
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["out"])
    groups = fuse_static(g)
    assert groups[0].kind == "cv-pattern"
    inputs = {t.id: rng.uniform(-1, 1, t.shape).astype(np.float32) for t in ins}
    device = DeviceState.from_config(CFG)
    out, _ = bind_and_run(groups[0], device, CFG, inputs, debug=True)
    want = inputs["a"].astype(np.float64) @ inputs["b"].astype(np.float64) + inputs["c"]
    err = np.abs(out["out"] - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-5


def test_bind_and_run_layernorm_matches_oracle():
    rng = np.random.default_rng(3)
    g = OperatorGraph()
    x = g.tensor("x", "f32", (2, 3, 8))
    metas, ops = decompose("layernorm", [x], "y")
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["y"])
    groups = fuse_static(g)
    data = rng.uniform(-1, 1, (2, 3, 8)).astype(np.float32)
    device = DeviceState.from_config(CFG)
    out, _ = bind_and_run(groups[0], device, CFG, {"x": data}, debug=True)
    want = direct_layernorm(data)
    err = np.abs(out["y"] - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-3


def test_strided_input_view_load():
    # a transposed (non-contiguous) view: strides swap, tiles become boxes
    g = OperatorGraph()
    g.tensor("a", "f32", (8, 4), strides=(1, 8))  # transpose of an (4, 8) buffer
    g.tensor("b", "f32", (8, 4))
    g.tensor("c", "f32", (8, 4))
    g.op("add", ["a", "b"], "c")
    g.set_outputs(["c"])
    groups = fuse_static(g)
    cfg = DeviceConfig(num_cores=2)
    base = np.arange(32, dtype=np.float32).reshape(4, 8)
    a_view = base.T  # shape (8, 4), strides (1, 8) in elements
    b = np.ones((8, 4), np.float32)
    device = DeviceState.from_config(cfg)
    # bind the *storage* of a: row-major base buffer
    device.bind(g.tensors["a"], base)  # 32 elements in storage order
    out, stats = bind_and_run(groups[0], device, cfg, {"b": b}, debug=True)
    assert np.array_equal(out["c"], a_view + b)
    assert any(k == "ViewLoad" for k in stats.instruction_counts)


def test_run_groups_matches_oracle():
    rng = np.random.default_rng(9)
    g = OperatorGraph()
    g.tensor("a", "f32", (16, 32))
    g.tensor("b", "f32", (16, 32))
    g.tensor("c", "f32", (16, 32))
    g.tensor("d", "f32", (16, 1))
    g.tensor("e", "f32", (16, 32))
    g.tensor("w", "f32", (32, 8))
    g.tensor("f", "f32", (16, 8))
    g.op("mul", ["a", "b"], "c")
    g.op("sum", ["c"], "d")
    g.op("broadcast", ["d"], "e", size=32)
    g.op("matmul", ["e", "w"], "f")
    g.set_outputs(["e", "f"])
    inputs = {
        t: rng.uniform(-1, 1, g.tensors[t].shape).astype(np.float32)
        for t in ("a", "b", "w")
    }
    groups = fuse_static(g)
    assert len(groups) == 2
    device = DeviceState.from_config(CFG)
    results, stats = run_groups(groups, device, CFG, inputs, debug=True)
    assert len(stats) == len(groups)
    env = oracle_env(g, inputs)
    for tid in g.outputs:
        report = compare(results[tid], env[tid].data, 1e-3, 1e-3)
        assert report.passed, (tid, report.max_abs_err)


def test_encode_latency_budget():
    # ten-op fused group must tile+encode in < 1 ms median
    specs = [("x0", "f32", (32, 64))]
    ops = []
    for i in range(10):
        specs.append((f"x{i+1}", "f32", (32, 64)))
        ops.append(("sqrt" if i % 2 else "abs", [f"x{i}"], f"x{i+1}", {}))
    group = _vector_group(specs, ops, [f"x{10}"])
    tg, device = _bind_all(group, CFG)
    times = []
    for _ in range(30):
        t0 = time.perf_counter()
        tg = tile_for_group(group, CFG)
        compile_group(group, tg, CFG)
        times.append(time.perf_counter() - t0)
    times.sort()
    median = times[len(times) // 2]
    assert median < 1e-3, f"median encode time {median * 1e3:.3f} ms"


def test_adds_with_broadcast_input_materializes():
    # adds over a reduced operand feeding a wider output space
    group = _vector_group(
        [("x", "f32", (6, 8)), ("s", "f32", (6, 1)), ("t", "f32", (6, 8))],
        [("sum", ["x"], "s", {}), ("broadcast", ["s"], "t", {"size": 8})],
        ["t"],
    )
    cfg = DeviceConfig(num_cores=2)
    device = DeviceState.from_config(cfg)
    rng = np.random.default_rng(55)
    data = rng.uniform(-1, 1, (6, 8)).astype(np.float32)
    out, _ = bind_and_run(group, device, cfg, {"x": data}, debug=True)
    want = np.broadcast_to(data.sum(-1, keepdims=True, dtype=np.float64), (6, 8))
    assert np.allclose(out["t"], want.astype(np.float32), atol=0)


def test_mixed_dtype_without_cast_rejected():
    g = OperatorGraph()
    g.tensor("a", "f16", (4, 8))
    g.tensor("b", "f32", (4, 8))
    g.tensor("c", "f32", (4, 8))
    g.op("add", ["a", "b"], "c")
    g.set_outputs(["c"])
    groups = fuse_static(g)
    tg, _ = _bind_all(groups[0], CFG)
    with pytest.raises(EncoderError):
        compile_group(groups[0], tg, CFG)
